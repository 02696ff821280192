//! The [`Recorder`]: ambient per-request traces, per-(route, phase)
//! latency histograms, one handler-time histogram per route (recorded on
//! every request, traced or not), a bounded ring of completed traces, and
//! engine-quality gauges.
//!
//! The ambient trace is thread-local, which matches the serving stack's
//! thread-per-request worker model: one worker thread runs read → handle
//! → write for a connection, so `Span`s dropped anywhere under the
//! handler land in the right request's trace without passing a context
//! handle through every call.
//!
//! Lock discipline: the histogram matrix is plain relaxed atomics (no
//! lock, no allocation); the completed-trace ring takes a short `Mutex`
//! once per request at `finish`.  Nothing here is on the per-particle
//! engine path.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::span::{Phase, NUM_PHASES};

/// Number of power-of-two latency bins per histogram.  Bin `i` covers
/// `[2^i, 2^(i+1))` nanoseconds (bin 0 also holds zero); the last bin,
/// from about nine minutes up, is open-ended.
pub const HIST_BINS: usize = 40;

/// FNV-1a 64-bit hash over a sequence of byte slices, with a length
/// marker between parts so `("ab", "c")` and `("a", "bc")` differ.
///
/// This is the deterministic half of a trace id: hash the request's
/// method, path, and body, and the same request always contributes the
/// same 64 bits — no RNG involved.
pub fn request_hash(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        for &byte in *part {
            eat(byte);
        }
        for &byte in (part.len() as u64).to_le_bytes().iter() {
            eat(byte);
        }
    }
    hash
}

/// Ambient trace state for the current thread.
struct ActiveTrace {
    id: String,
    phase_nanos: [u64; NUM_PHASES],
    engine: Vec<(String, f64)>,
    notes: Vec<(&'static str, String)>,
}

/// Identity of the most recently finished trace on this thread, kept so
/// the transport layer can attribute the `http.write` phase (which runs
/// after the handler, and therefore after `finish`) to the right trace.
struct LastFinished {
    id: String,
    route_index: usize,
}

thread_local! {
    /// Fast flag consulted by `Span::enter`: `Cell<bool>` carries no
    /// destructor, so probing it never allocates, even on first touch.
    static TRACE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    static LAST_FINISHED: RefCell<Option<LastFinished>> = const { RefCell::new(None) };
    static PENDING_READ_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Whether a trace is active on the current thread.
#[inline]
pub fn tracing_active() -> bool {
    TRACE_ACTIVE.with(|flag| flag.get())
}

/// Add `nanos` to `phase` of the current thread's active trace, if any.
#[inline]
pub fn record_phase_nanos(phase: Phase, nanos: u64) {
    if !tracing_active() {
        return;
    }
    ACTIVE.with(|slot| {
        if let Some(trace) = slot.borrow_mut().as_mut() {
            trace.phase_nanos[phase.index()] =
                trace.phase_nanos[phase.index()].saturating_add(nanos);
        }
    });
}

/// Trace id of the current thread's active trace, if any.
pub fn current_trace_id() -> Option<String> {
    if !tracing_active() {
        return None;
    }
    ACTIVE.with(|slot| slot.borrow().as_ref().map(|trace| trace.id.clone()))
}

/// Attach a string annotation (e.g. `cache: "hit"`) to the active trace.
pub fn annotate(key: &'static str, value: String) {
    if !tracing_active() {
        return;
    }
    ACTIVE.with(|slot| {
        if let Some(trace) = slot.borrow_mut().as_mut() {
            trace.notes.push((key, value));
        }
    });
}

/// Attach engine diagnostics (name → value pairs) to the active trace.
pub fn annotate_engine(pairs: Vec<(String, f64)>) {
    if !tracing_active() {
        return;
    }
    ACTIVE.with(|slot| {
        if let Some(trace) = slot.borrow_mut().as_mut() {
            trace.engine.extend(pairs);
        }
    });
}

/// Snapshot of the active trace's per-phase nanoseconds so far.
pub fn span_snapshot() -> Option<[u64; NUM_PHASES]> {
    if !tracing_active() {
        return None;
    }
    ACTIVE.with(|slot| slot.borrow().as_ref().map(|trace| trace.phase_nanos))
}

/// Stash the time the transport spent reading the request, to be folded
/// into the next trace begun on this thread (the transport reads the
/// request *before* the handler — and therefore the trace — exists).
pub fn set_pending_read_nanos(nanos: u64) {
    PENDING_READ_NANOS.with(|slot| slot.set(nanos));
}

/// Take (and clear) the pending read time stashed by the transport.
pub fn take_pending_read_nanos() -> u64 {
    PENDING_READ_NANOS.with(|slot| slot.replace(0))
}

/// Take the identity of the most recently finished trace on this thread
/// (set by [`Recorder::finish`]); used by the transport to attribute the
/// `http.write` phase.  Returns `(trace_id, route_index)`.
pub fn take_last_finished() -> Option<(String, usize)> {
    LAST_FINISHED.with(|slot| {
        slot.borrow_mut()
            .take()
            .map(|last| (last.id, last.route_index))
    })
}

/// A completed request trace, as retained in the ring buffer.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// Trace id (`t-<hash><seq>`), also returned as `X-Ppl-Trace-Id`.
    pub id: String,
    /// Normalised route the request resolved to.
    pub route: &'static str,
    /// HTTP status of the response.
    pub status: u16,
    /// End-to-end handler time in nanoseconds (excludes `http.write`).
    pub total_nanos: u64,
    /// Per-phase accumulated nanoseconds, indexed by [`Phase::index`].
    pub phase_nanos: [u64; NUM_PHASES],
    /// Engine diagnostics attached during the request (name → value).
    pub engine: Vec<(String, f64)>,
    /// String annotations attached during the request (key → value).
    pub notes: Vec<(&'static str, String)>,
    /// Monotonic completion order (process-wide, starts at 0).
    pub seq: u64,
}

/// A snapshot of one log₂ latency histogram: a (route, phase) cell or a
/// route's handler-time cell.
///
/// Count, sum and max are exact.  A quantile is read from the bins: for
/// samples of at least 1 ns, the nearest-rank quantile `true` and the
/// reported [`quantile_nanos`](PhaseStat::quantile_nanos) satisfy
/// `true ≤ reported ≤ min(2 × true, max)` — the upper edge of the bin
/// holding the rank, clamped at the exact maximum.  Snapshots of
/// different cells [`merge`](PhaseStat::merge) exactly, bin by bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Samples per bin; bin `i` counts samples in `[2^i, 2^(i+1))` ns.
    pub bins: [u64; HIST_BINS],
    /// Number of recorded samples (the sum of `bins`).
    pub count: u64,
    /// Sum of recorded nanoseconds (for means).
    pub sum_nanos: u64,
    /// Maximum recorded nanoseconds (exact).
    pub max_nanos: u64,
}

impl Default for PhaseStat {
    fn default() -> PhaseStat {
        PhaseStat {
            bins: [0; HIST_BINS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl PhaseStat {
    /// The `q`-quantile in nanoseconds (see the bound above); zero when
    /// empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &weight) in self.bins.iter().enumerate() {
            cumulative += weight;
            if cumulative >= target {
                let upper = if i + 1 < HIST_BINS {
                    1u64 << (i + 1)
                } else {
                    u64::MAX
                };
                return upper.min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// Mean in nanoseconds; zero when empty.
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_nanos as f64 / self.count as f64
    }

    /// Folds `other` into this snapshot, bin by bin.
    pub fn merge(&mut self, other: &PhaseStat) {
        for (bin, &add) in self.bins.iter_mut().zip(&other.bins) {
            *bin += add;
        }
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// Per-route phase summaries with at least one sample.
#[derive(Debug, Clone)]
pub struct RoutePhaseStats {
    /// The route these phases belong to.
    pub route: &'static str,
    /// `(phase, stats)` for every phase with `count > 0`.
    pub phases: Vec<(Phase, PhaseStat)>,
}

/// One histogram cell: log₂ bins plus sum and max, as relaxed atomics.
struct HistCell {
    bins: [AtomicU64; HIST_BINS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            bins: [const { AtomicU64::new(0) }; HIST_BINS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        self.bins[bin_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    fn stat(&self) -> PhaseStat {
        let mut stat = PhaseStat {
            sum_nanos: self.sum.load(Ordering::Relaxed),
            max_nanos: self.max.load(Ordering::Relaxed),
            ..PhaseStat::default()
        };
        for (slot, bin) in stat.bins.iter_mut().zip(self.bins.iter()) {
            *slot = bin.load(Ordering::Relaxed);
        }
        stat.count = stat.bins.iter().sum();
        stat
    }
}

/// Bin index for `nanos`: bin `i` covers `[2^i, 2^(i+1))`.
fn bin_index(nanos: u64) -> usize {
    let n = nanos.max(1);
    ((63 - n.leading_zeros()) as usize).min(HIST_BINS - 1)
}

/// Gauge that tracks the minimum `f64` observed, atomically.
struct MinGauge {
    bits: AtomicU64,
    seen: AtomicBool,
}

impl MinGauge {
    fn new() -> MinGauge {
        MinGauge {
            bits: AtomicU64::new(f64::INFINITY.to_bits()),
            seen: AtomicBool::new(false),
        }
    }

    fn observe(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.seen.store(true, Ordering::Relaxed);
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            if value >= f64::from_bits(current) {
                return;
            }
            match self.bits.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    fn get(&self) -> Option<f64> {
        if self.seen.load(Ordering::Relaxed) {
            Some(f64::from_bits(self.bits.load(Ordering::Relaxed)))
        } else {
            None
        }
    }
}

/// The process-wide flight recorder.
///
/// Owns the per-(route, phase) histogram matrix, the per-route
/// handler-time histograms, the ring of completed traces, and the
/// engine-quality gauges.  One `Recorder` is shared (via `Arc`) between
/// the request handler and the transport layer.
pub struct Recorder {
    routes: &'static [&'static str],
    enabled: AtomicBool,
    seq: AtomicU64,
    hists: Vec<HistCell>,
    /// One handler-time cell per route, fed by every request.
    totals: Vec<HistCell>,
    ring: Mutex<VecDeque<CompletedTrace>>,
    ring_capacity: usize,
    min_ess: MinGauge,
    min_acceptance: MinGauge,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .field("ring_capacity", &self.ring_capacity)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Build a recorder over the given route table, retaining the last
    /// `ring_capacity` completed traces (clamped to at least 1).
    pub fn new(routes: &'static [&'static str], ring_capacity: usize) -> Recorder {
        let capacity = ring_capacity.max(1);
        let cells = routes.len() * NUM_PHASES;
        Recorder {
            routes,
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            hists: (0..cells).map(|_| HistCell::new()).collect(),
            totals: routes.iter().map(|_| HistCell::new()).collect(),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            ring_capacity: capacity,
            min_ess: MinGauge::new(),
            min_acceptance: MinGauge::new(),
        }
    }

    /// Turn tracing on or off process-wide.  When off, `begin` is a
    /// no-op and spans stay inert.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the recorder is currently accepting traces.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Ring buffer capacity (completed traces retained).
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// Begin a trace for the current thread and return its id.
    ///
    /// The id is `t-<hash:016x><seq:08x>`: `hash` is the caller-supplied
    /// request fingerprint (see [`request_hash`]) and `seq` is a process
    /// epoch counter, so concurrent identical requests still get
    /// distinct ids and the RNG is never consulted.  Returns `None`
    /// (and installs nothing) when the recorder is disabled.
    pub fn begin(&self, fingerprint: u64) -> Option<String> {
        if !self.enabled() {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let id = format!("t-{fingerprint:016x}{:08x}", seq & 0xffff_ffff);
        let trace = ActiveTrace {
            id: id.clone(),
            phase_nanos: [0; NUM_PHASES],
            engine: Vec::new(),
            notes: Vec::new(),
        };
        ACTIVE.with(|slot| *slot.borrow_mut() = Some(trace));
        TRACE_ACTIVE.with(|flag| flag.set(true));
        Some(id)
    }

    /// Record one handled request on route `route_index` (an index into
    /// the route table; out of range counts as the last route).  Its
    /// handler time `total_nanos` goes into the route's total cell
    /// whether or not tracing is on.  If a trace is active on this
    /// thread, it is finished too: its phase timings fold into the
    /// (route, phase) histograms, it joins the ring (evicting the oldest
    /// when full), and its identity is kept for the transport's
    /// `http.write` attribution.  Returns the finished trace's id.
    pub fn finish(&self, route_index: usize, status: u16, total_nanos: u64) -> Option<String> {
        let route_index = route_index.min(self.routes.len() - 1);
        self.totals[route_index].record(total_nanos);
        let trace = ACTIVE.with(|slot| slot.borrow_mut().take());
        TRACE_ACTIVE.with(|flag| flag.set(false));
        let trace = trace?;
        for (phase_index, &nanos) in trace.phase_nanos.iter().enumerate() {
            if nanos > 0 {
                self.cell(route_index, phase_index).record(nanos);
            }
        }
        let completed = CompletedTrace {
            id: trace.id.clone(),
            route: self.routes[route_index],
            status,
            total_nanos,
            phase_nanos: trace.phase_nanos,
            engine: trace.engine,
            notes: trace.notes,
            seq: 0,
        };
        let id = completed.id.clone();
        {
            let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            let mut completed = completed;
            completed.seq = ring.back().map_or(0, |t| t.seq + 1);
            if ring.len() == self.ring_capacity {
                ring.pop_front();
            }
            ring.push_back(completed);
        }
        LAST_FINISHED.with(|slot| {
            *slot.borrow_mut() = Some(LastFinished {
                id: id.clone(),
                route_index,
            });
        });
        Some(id)
    }

    /// Discard the current thread's active trace without recording it
    /// (used when a handler panics mid-request).
    pub fn discard(&self) {
        ACTIVE.with(|slot| *slot.borrow_mut() = None);
        TRACE_ACTIVE.with(|flag| flag.set(false));
    }

    /// Record the transport's `http.write` time for a finished trace:
    /// updates the (route, `http.write`) histogram and back-fills the
    /// ring entry with matching id.
    pub fn note_http_write(&self, id: &str, route_index: usize, nanos: u64) {
        if nanos == 0 {
            return;
        }
        let index = route_index.min(self.routes.len() - 1);
        self.cell(index, Phase::HttpWrite.index()).record(nanos);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = ring.iter_mut().rev().find(|t| t.id == id) {
            entry.phase_nanos[Phase::HttpWrite.index()] =
                entry.phase_nanos[Phase::HttpWrite.index()].saturating_add(nanos);
        }
    }

    /// Feed the engine-quality gauges: minimum effective sample size and
    /// worst (lowest) MH acceptance rate seen since boot.
    pub fn observe_quality(&self, ess: Option<f64>, acceptance: Option<f64>) {
        if let Some(value) = ess {
            self.min_ess.observe(value);
        }
        if let Some(value) = acceptance {
            self.min_acceptance.observe(value);
        }
    }

    /// Minimum ESS observed since boot, if any run reported one.
    pub fn min_ess(&self) -> Option<f64> {
        self.min_ess.get()
    }

    /// Worst (lowest) MH acceptance rate observed since boot.
    pub fn worst_acceptance(&self) -> Option<f64> {
        self.min_acceptance.get()
    }

    /// Completed traces, newest first.
    pub fn recent(&self) -> Vec<CompletedTrace> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().rev().cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn recorded(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Look up a completed trace by id (newest match wins).
    pub fn get(&self, id: &str) -> Option<CompletedTrace> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().rev().find(|t| t.id == id).cloned()
    }

    /// Handler-time snapshots, one per route in route-table order (empty
    /// routes included).
    pub fn route_totals(&self) -> Vec<PhaseStat> {
        self.totals.iter().map(HistCell::stat).collect()
    }

    /// Per-route, per-phase latency summaries for every cell with at
    /// least one sample.
    pub fn phase_stats(&self) -> Vec<RoutePhaseStats> {
        let mut out = Vec::new();
        for (route_index, route) in self.routes.iter().enumerate() {
            let mut phases = Vec::new();
            for phase in crate::span::PHASES {
                let stat = self.cell(route_index, phase.index()).stat();
                if stat.count > 0 {
                    phases.push((phase, stat));
                }
            }
            if !phases.is_empty() {
                out.push(RoutePhaseStats { route, phases });
            }
        }
        out
    }

    fn cell(&self, route_index: usize, phase_index: usize) -> &HistCell {
        &self.hists[route_index * NUM_PHASES + phase_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    static ROUTES: [&str; 3] = ["/a", "/b", "other"];

    #[test]
    fn request_hash_separates_parts() {
        assert_ne!(
            request_hash(&[b"ab", b"c"]),
            request_hash(&[b"a", b"bc"]),
            "length markers must keep part boundaries distinct"
        );
        assert_eq!(request_hash(&[b"x", b"y"]), request_hash(&[b"x", b"y"]));
    }

    #[test]
    fn begin_span_finish_records_phase_and_ring_entry() {
        let rec = Recorder::new(&ROUTES, 8);
        let id = rec.begin(0xdead_beef).expect("enabled recorder begins");
        {
            let span = Span::enter(Phase::InferDraw);
            assert!(span.is_armed());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        annotate("cache", "miss".to_string());
        annotate_engine(vec![("ess".to_string(), 42.0)]);
        let finished = rec.finish(0, 200, 2_000_000).expect("trace was active");
        assert_eq!(finished, id);
        assert!(!tracing_active());

        let trace = rec.get(&id).expect("trace retained in ring");
        assert!(trace.phase_nanos[Phase::InferDraw.index()] > 0);
        assert_eq!(trace.route, "/a");
        assert_eq!(trace.status, 200);
        assert_eq!(trace.engine, vec![("ess".to_string(), 42.0)]);
        assert_eq!(trace.notes, vec![("cache", "miss".to_string())]);

        let stats = rec.phase_stats();
        let route_a = stats.iter().find(|s| s.route == "/a").expect("route /a");
        let (_, draw) = route_a
            .phases
            .iter()
            .find(|(p, _)| *p == Phase::InferDraw)
            .expect("infer.draw recorded");
        assert_eq!(draw.count, 1);
        assert!(draw.max_nanos >= 1_000_000);
        assert_eq!(
            draw.quantile_nanos(0.5),
            draw.max_nanos,
            "one sample: every quantile is the sample"
        );
        assert_eq!(trace.total_nanos, 2_000_000, "the handler's total");
        assert_eq!(rec.route_totals()[0].count, 1);
    }

    #[test]
    fn ring_evicts_oldest_first_at_capacity() {
        let rec = Recorder::new(&ROUTES, 3);
        let mut ids = Vec::new();
        for i in 0..5u64 {
            let id = rec.begin(i).unwrap();
            rec.finish(1, 200, 1_000).unwrap();
            ids.push(id);
        }
        assert_eq!(rec.recorded(), 3);
        assert!(rec.get(&ids[0]).is_none(), "oldest evicted");
        assert!(rec.get(&ids[1]).is_none(), "second-oldest evicted");
        for id in &ids[2..] {
            assert!(rec.get(id).is_some(), "newest three retained");
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id, ids[4], "recent() is newest first");
        assert_eq!(recent[2].id, ids[2]);
        assert!(recent[0].seq > recent[2].seq);
    }

    #[test]
    fn disabled_recorder_begins_nothing_and_spans_stay_inert() {
        let rec = Recorder::new(&ROUTES, 4);
        rec.set_enabled(false);
        assert!(rec.begin(7).is_none());
        assert!(!tracing_active());
        let span = Span::enter(Phase::Validate);
        assert!(!span.is_armed());
        assert!(rec.finish(0, 200, 5_000).is_none());
        assert_eq!(rec.recorded(), 0);
        // Untraced requests still feed the route's handler-time cell.
        let totals = rec.route_totals();
        assert_eq!((totals[0].count, totals[0].max_nanos), (1, 5_000));
    }

    #[test]
    fn concurrent_begins_yield_distinct_ids_for_identical_requests() {
        let rec = std::sync::Arc::new(Recorder::new(&ROUTES, 64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                let id = rec.begin(0x1234).unwrap();
                rec.finish(0, 200, 1_000).unwrap();
                id
            }));
        }
        let mut ids: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8, "same fingerprint, distinct epoch counters");
    }

    #[test]
    fn quality_gauges_track_minima() {
        let rec = Recorder::new(&ROUTES, 4);
        assert_eq!(rec.min_ess(), None);
        assert_eq!(rec.worst_acceptance(), None);
        rec.observe_quality(Some(250.0), None);
        rec.observe_quality(Some(900.0), Some(0.4));
        rec.observe_quality(Some(120.5), Some(0.62));
        rec.observe_quality(Some(f64::NAN), None);
        assert_eq!(rec.min_ess(), Some(120.5));
        assert_eq!(rec.worst_acceptance(), Some(0.4));
    }

    #[test]
    fn http_write_backfills_ring_and_histogram() {
        let rec = Recorder::new(&ROUTES, 4);
        let id = rec.begin(1).unwrap();
        rec.finish(0, 200, 1_000).unwrap();
        let (last_id, route_index) = take_last_finished().expect("finish sets last-finished");
        assert_eq!(last_id, id);
        assert_eq!(route_index, 0);
        rec.note_http_write(&id, route_index, 5_000);
        let trace = rec.get(&id).unwrap();
        assert_eq!(trace.phase_nanos[Phase::HttpWrite.index()], 5_000);
        let stats = rec.phase_stats();
        let route_a = stats.iter().find(|s| s.route == "/a").unwrap();
        assert!(route_a.phases.iter().any(|(p, _)| *p == Phase::HttpWrite));
    }

    #[test]
    fn pending_read_nanos_hand_off() {
        set_pending_read_nanos(123);
        assert_eq!(take_pending_read_nanos(), 123);
        assert_eq!(take_pending_read_nanos(), 0, "take clears the slot");
    }

    #[test]
    fn quantiles_clamp_at_the_exact_max() {
        // One 1 ms sample: its bin's upper edge is 1.049 ms, above the
        // sample itself; the quantile reports the exact maximum instead.
        let cell = HistCell::new();
        cell.record(1_000_000);
        let stat = cell.stat();
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(stat.quantile_nanos(q), 1_000_000, "q {q}");
        }
        assert_eq!(PhaseStat::default().quantile_nanos(0.5), 0);
    }

    #[test]
    fn quantiles_stay_within_the_stated_bound() {
        // true ≤ reported ≤ min(2 × true, max) for the nearest-rank
        // quantile, on samples spread over several orders of magnitude.
        let samples: Vec<Vec<u64>> = vec![
            (50_000..=74_000).step_by(240).collect(),
            (1..=1_000).map(|i| i * i * 37).collect(),
            vec![3, 3, 3, 1 << 20, (1 << 20) + 1, u64::MAX / 4],
            (0..200).map(|i| 1_000 + (i % 7) * 100_000).collect(),
        ];
        for mut values in samples {
            let cell = HistCell::new();
            for &v in &values {
                cell.record(v);
            }
            let stat = cell.stat();
            values.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((values.len() as f64) * q).ceil().max(1.0) as usize;
                let truth = values[rank - 1];
                let reported = stat.quantile_nanos(q);
                let bound = truth.saturating_mul(2).min(stat.max_nanos);
                assert!(
                    truth <= reported && reported <= bound,
                    "q {q}: true {truth}, reported {reported}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn route_totals_merge_exactly() {
        let rec = Recorder::new(&ROUTES, 4);
        rec.set_enabled(false);
        let whole = HistCell::new();
        for (i, nanos) in [900u64, 40_000, 41_000, 3_000_000, 12].iter().enumerate() {
            rec.finish(i % 3, 200, *nanos);
            whole.record(*nanos);
        }
        rec.finish(99, 404, 7); // out of range: the last route
        whole.record(7);
        let totals = rec.route_totals();
        assert_eq!(
            totals.iter().map(|t| t.count).collect::<Vec<_>>(),
            [2, 2, 2]
        );
        let mut merged = PhaseStat::default();
        for t in &totals {
            merged.merge(t);
        }
        assert_eq!(merged, whole.stat());
        assert_eq!(merged.mean_nanos(), merged.sum_nanos as f64 / 6.0);
    }

    #[test]
    fn bin_index_is_monotone_log2() {
        assert_eq!(bin_index(0), 0);
        assert_eq!(bin_index(1), 0);
        assert_eq!(bin_index(2), 1);
        assert_eq!(bin_index(3), 1);
        assert_eq!(bin_index(1024), 10);
        assert_eq!(bin_index(u64::MAX), HIST_BINS - 1);
    }
}
