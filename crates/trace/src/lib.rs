//! Zero-cost-when-off observability for the gncg solver stack.
//!
//! The layer has three parts:
//!
//! - **Work counters** ([`Counter`]): thread-local `u64` tallies of the
//!   units of algorithmic work the stack performs (Dijkstra heap pops and
//!   edge relaxations, exact best-response strategy evaluations, distance
//!   matrix row invalidations) and of the execution substrate's activity
//!   (chunk claims, budget polls, injected faults and their retries, pool
//!   jobs). Each worker accumulates locally and merges into process-wide
//!   atomics at scope exit (see [`worker_guard`]); because the algorithmic
//!   counters are sums of per-item deterministic contributions and `u64`
//!   addition is order-independent, their totals are bit-identical across
//!   thread counts and across fault-injection retries.
//! - **Spans** ([`span`]): coarse monotonic-clock timers around the big
//!   phases (APSP, best response, dynamics, certification). A span is one
//!   `Instant::now()` pair plus one mutex lock at drop — cheap because
//!   spans wrap work that takes microseconds to seconds, never per-item.
//! - **Chunk histogram**: a log₂-bucketed duration histogram of parallel
//!   chunk execution times, the pool-utilization signal.
//!
//! Everything is gated on `GNCG_TRACE=1`. When the gate is off (the
//! default) every instrumentation site reduces to one relaxed atomic load
//! (counters, spans) or is bypassed entirely (clock reads); the hot
//! Dijkstra kernels count into local registers unconditionally and make a
//! single gated call per kernel invocation, so the off-path adds no
//! per-edge work at all. The `trace_overhead` bench in `gncg-bench`
//! verifies the off-path is within noise of an uninstrumented build.
//!
//! Toggling the gate while parallel work is in flight has no data races
//! but may lose or split counts; [`set_enabled`] exists for tests and
//! single-threaded tools, production use is env-var-at-startup only.

use gncg_json::{object, ToJson, Value};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// gate

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Is tracing enabled? First call reads `GNCG_TRACE` (`"1"`/`"true"` ⇒
/// on); the answer is cached, so this is a single relaxed atomic load on
/// every subsequent call.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = gncg_config::env::trace();
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Override the gate (tests and tools). See the crate docs for the
/// mid-flight toggling caveat.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// counters

/// The tracked work counters. The ones listed in
/// [`DETERMINISTIC_COUNTERS`] are *deterministic*: their totals depend
/// only on the workload, not on thread count, scheduling, or fault
/// injection (`tools/perf_gate.sh` compares them exactly). The rest
/// describe substrate activity and may legitimately vary run-to-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Successful edge relaxations (`nd < dist[v]`) in any Dijkstra kernel.
    DijkstraRelaxations = 0,
    /// Binary-heap pops in any Dijkstra kernel (including stale entries).
    DijkstraHeapPops,
    /// Exact strategy evaluations (`ResponseEvaluator::cost_with` calls).
    BestResponseEvals,
    /// Previously-valid distance-matrix rows invalidated by an accepted move.
    RowInvalidations,
    /// Chunks claimed from the shared counter by scoped-loop workers.
    ChunkClaims,
    /// Budget-exhaustion polls (only counted when a budget is installed).
    BudgetPolls,
    /// Faults fired by the `GNCG_FAULT_INJECT` injector.
    FaultsInjected,
    /// Chunk retries caused by injected faults.
    FaultRetries,
    /// Jobs executed by persistent `ThreadPool` workers.
    PoolJobs,
    /// Candidate moves/strategies discarded by the geometric pruning
    /// layer without a cost evaluation, plus the `run_approx` drop
    /// probes whose row repair was skipped or stopped at the turn's
    /// cutoff. Each decision is a pure function of the candidate, fixed
    /// per-agent bounds and the deterministic probe order, so the total
    /// is schedule-invariant.
    MovesPruned,
    /// Candidate moves/strategies that survived pruning and were cost
    /// evaluated by the pruned engine. `MovesPruned + MovesEvaluated`
    /// equals the candidate count the unpruned oracle evaluates
    /// (`run_approx` counts its probes in `BestResponseEvals` instead).
    MovesEvaluated,
    /// Jobs admitted into a `gncg-service` session queue.
    ServiceEnqueued,
    /// Jobs dequeued by a `gncg-service` runner (started executing).
    ServiceDequeued,
    /// Jobs rejected at admission (queue full or session shutting down).
    ServiceRejected,
    /// Jobs accepted by the `gncg-serve` wire layer and enqueued into the
    /// backing session (idempotent replays of an already-known key do not
    /// count twice).
    ServeEnqueued,
    /// Wire-layer submissions rejected before reaching the session
    /// (per-client quota exceeded, server draining, or malformed request).
    ServeRejected,
    /// Frames successfully decoded off client connections.
    ServeFramesRx,
    /// Frames successfully written to client connections.
    ServeFramesTx,
    /// Client-side retries (reconnects + resubmissions) performed by
    /// `ServeClient` after transport errors or injected network faults.
    ServeRetries,
    /// Move targets produced by grid-hash candidate generation and handed
    /// to a move engine for consideration. A pure function of the
    /// instance (cell membership + the sound exclusion radius), so the
    /// total is schedule-invariant.
    CandidatesGenerated,
    /// Move targets excluded by the grid's sound radius bound without
    /// ever reaching a move engine — each one provably unable to beat the
    /// agent's current cost (see `gncg-game`'s `approx` module docs).
    /// Deterministic for the same reason as [`Counter::CandidatesGenerated`].
    CandidatesSkipped,
    /// Content-addressed result-cache lookups that found a valid entry.
    /// NOT deterministic: hit counts depend on what earlier runs left in
    /// `GNCG_CACHE_DIR`, so this stays out of
    /// [`DETERMINISTIC_COUNTERS`].
    CacheHits,
    /// Content-addressed result-cache lookups that missed (no entry, or
    /// a corrupt entry that was quarantined). Nondeterministic for the
    /// same reason as [`Counter::CacheHits`].
    CacheMisses,
}

/// Number of counters in [`Counter`].
pub const NUM_COUNTERS: usize = 23;

/// JSON field names, indexed by `Counter as usize`.
pub const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "dijkstra_relaxations",
    "dijkstra_heap_pops",
    "best_response_evals",
    "row_invalidations",
    "chunk_claims",
    "budget_polls",
    "faults_injected",
    "fault_retries",
    "pool_jobs",
    "moves_pruned",
    "moves_evaluated",
    "service_enqueued",
    "service_dequeued",
    "service_rejected",
    "serve_enqueued",
    "serve_rejected",
    "serve_frames_rx",
    "serve_frames_tx",
    "serve_retries",
    "candidates_generated",
    "candidates_skipped",
    "cache_hits",
    "cache_misses",
];

/// The thread-count- and schedule-invariant subset of [`COUNTER_NAMES`];
/// the perf gate compares exactly these for bit-identity.
pub const DETERMINISTIC_COUNTERS: [Counter; 8] = [
    Counter::DijkstraRelaxations,
    Counter::DijkstraHeapPops,
    Counter::BestResponseEvals,
    Counter::RowInvalidations,
    Counter::MovesPruned,
    Counter::MovesEvaluated,
    Counter::CandidatesGenerated,
    Counter::CandidatesSkipped,
];

thread_local! {
    static LOCAL: [Cell<u64>; NUM_COUNTERS] = const { [const { Cell::new(0) }; NUM_COUNTERS] };
}

static GLOBAL: [AtomicU64; NUM_COUNTERS] = [const { AtomicU64::new(0) }; NUM_COUNTERS];

/// Add `n` to a counter (no-op when tracing is off or `n == 0`).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() && n > 0 {
        add_unchecked(counter, n);
    }
}

/// Add 1 to a counter (no-op when tracing is off).
#[inline]
pub fn incr(counter: Counter) {
    if enabled() {
        add_unchecked(counter, 1);
    }
}

/// Record one Dijkstra kernel invocation's batched tallies. The kernels
/// count into local registers unconditionally and call this once per
/// invocation, so the gate is checked once per kernel, not per edge.
#[inline]
pub fn record_dijkstra(heap_pops: u64, relaxations: u64) {
    if enabled() {
        add_unchecked(Counter::DijkstraHeapPops, heap_pops);
        add_unchecked(Counter::DijkstraRelaxations, relaxations);
    }
}

#[inline]
fn add_unchecked(counter: Counter, n: u64) {
    LOCAL.with(|l| {
        let cell = &l[counter as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Merge this thread's local tallies into the process-wide totals and
/// zero the locals. Workers do this at scope exit (via [`worker_guard`])
/// or per pool job; [`snapshot`] does it for the calling thread.
pub fn flush_thread() {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        for (cell, global) in l.iter().zip(GLOBAL.iter()) {
            let v = cell.replace(0);
            if v > 0 {
                global.fetch_add(v, Ordering::Relaxed);
            }
        }
    });
}

/// RAII guard that flushes the current thread's counters when dropped.
/// Every `gncg-parallel` worker holds one for the duration of its scope.
#[must_use]
pub struct WorkerGuard {
    _priv: (),
}

/// Create a [`WorkerGuard`] for the current thread.
pub fn worker_guard() -> WorkerGuard {
    WorkerGuard { _priv: () }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        flush_thread();
    }
}

// ---------------------------------------------------------------------------
// spans

struct SpanTotal {
    name: &'static str,
    count: u64,
    total_ns: u64,
}

static SPANS: Mutex<Vec<SpanTotal>> = Mutex::new(Vec::new());

/// An in-flight span; records its elapsed time under `name` when dropped.
#[must_use]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Open a span. When tracing is off this takes no clock reading and the
/// drop is a no-op.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut spans = SPANS.lock().unwrap_or_else(|p| p.into_inner());
            match spans.iter_mut().find(|s| s.name == self.name) {
                Some(s) => {
                    s.count += 1;
                    s.total_ns = s.total_ns.saturating_add(ns);
                }
                None => spans.push(SpanTotal {
                    name: self.name,
                    count: 1,
                    total_ns: ns,
                }),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// chunk-duration histogram

/// Number of log₂ buckets in the chunk-duration histogram. Bucket `k`
/// counts chunks whose wall time `t` satisfies `⌊log₂ t_ns⌋ = k`, with
/// the last bucket absorbing everything ≥ 2³¹ ns (~2.1 s).
pub const HIST_BUCKETS: usize = 32;

static CHUNK_HIST: [AtomicU64; HIST_BUCKETS] = [const { AtomicU64::new(0) }; HIST_BUCKETS];

/// Record one parallel chunk's wall time. Callers gate the clock reads
/// on [`enabled`] themselves; this only buckets and increments.
pub fn record_chunk_ns(ns: u64) {
    let bucket = if ns <= 1 {
        0
    } else {
        (63 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    };
    CHUNK_HIST[bucket].fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// snapshot

/// Per-span aggregate in a [`TraceSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// A point-in-time copy of all trace state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; NUM_COUNTERS],
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Chunk-duration histogram (log₂-ns buckets).
    pub chunk_hist: [u64; HIST_BUCKETS],
}

impl TraceSnapshot {
    /// Total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Per-counter difference `self − earlier` (saturating), spans and
    /// histogram dropped. For before/after measurements in tests.
    pub fn counters_since(&self, earlier: &TraceSnapshot) -> [u64; NUM_COUNTERS] {
        let mut out = [0u64; NUM_COUNTERS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        out
    }
}

impl ToJson for TraceSnapshot {
    fn to_json(&self) -> Value {
        let counters = object(
            COUNTER_NAMES
                .iter()
                .zip(self.counters.iter())
                .map(|(name, &v)| (*name, Value::Number(v as f64)))
                .collect(),
        );
        let spans = Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    object(vec![
                        ("name", Value::String(s.name.to_string())),
                        ("count", Value::Number(s.count as f64)),
                        ("total_ns", Value::Number(s.total_ns as f64)),
                    ])
                })
                .collect(),
        );
        let hist = Value::Array(
            self.chunk_hist
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| {
                    object(vec![
                        ("log2_ns", Value::Number(k as f64)),
                        ("count", Value::Number(c as f64)),
                    ])
                })
                .collect(),
        );
        object(vec![
            ("counters", counters),
            ("spans", spans),
            ("chunk_ns_hist", hist),
        ])
    }
}

/// Flush the calling thread, then copy the process-wide totals. Complete
/// only once all parallel regions of interest have exited (scoped loops
/// flush at scope exit, pool workers per job).
pub fn snapshot() -> TraceSnapshot {
    flush_thread();
    let mut counters = [0u64; NUM_COUNTERS];
    for (out, global) in counters.iter_mut().zip(GLOBAL.iter()) {
        *out = global.load(Ordering::Relaxed);
    }
    let mut spans: Vec<SpanStat> = SPANS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .map(|s| SpanStat {
            name: s.name,
            count: s.count,
            total_ns: s.total_ns,
        })
        .collect();
    spans.sort_by_key(|s| s.name);
    let mut chunk_hist = [0u64; HIST_BUCKETS];
    for (out, bucket) in chunk_hist.iter_mut().zip(CHUNK_HIST.iter()) {
        *out = bucket.load(Ordering::Relaxed);
    }
    TraceSnapshot {
        counters,
        spans,
        chunk_hist,
    }
}

/// Zero all process-wide totals, spans, the histogram, and the calling
/// thread's locals. Call only between parallel regions (other threads'
/// unflushed locals are not touched; scoped workers have none between
/// regions and pool workers flush per job).
pub fn reset() {
    LOCAL.with(|l| {
        for cell in l.iter() {
            cell.set(0);
        }
    });
    for global in GLOBAL.iter() {
        global.store(0, Ordering::Relaxed);
    }
    SPANS.lock().unwrap_or_else(|p| p.into_inner()).clear();
    for bucket in CHUNK_HIST.iter() {
        bucket.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // trace state is process-global; serialize the tests that touch it
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn counters_accumulate_and_flush() {
        let _g = locked();
        set_enabled(true);
        reset();
        add(Counter::DijkstraRelaxations, 5);
        incr(Counter::BestResponseEvals);
        record_dijkstra(7, 3);
        let s = snapshot();
        assert_eq!(s.counter(Counter::DijkstraRelaxations), 8);
        assert_eq!(s.counter(Counter::DijkstraHeapPops), 7);
        assert_eq!(s.counter(Counter::BestResponseEvals), 1);
        assert_eq!(s.counter(Counter::ChunkClaims), 0);
        set_enabled(false);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        set_enabled(true);
        reset();
        set_enabled(false);
        add(Counter::DijkstraRelaxations, 5);
        record_dijkstra(2, 2);
        {
            let _s = span("noop");
        }
        set_enabled(true);
        let s = snapshot();
        assert_eq!(s.counters, [0u64; NUM_COUNTERS]);
        assert!(s.spans.is_empty());
        set_enabled(false);
    }

    #[test]
    fn cross_thread_merge_is_a_sum() {
        let _g = locked();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let guard = worker_guard();
                    for _ in 0..100 {
                        incr(Counter::BestResponseEvals);
                    }
                    drop(guard);
                });
            }
        });
        let s = snapshot();
        assert_eq!(s.counter(Counter::BestResponseEvals), 400);
        set_enabled(false);
    }

    #[test]
    fn spans_record_named_totals() {
        let _g = locked();
        set_enabled(true);
        reset();
        {
            let _s = span("unit_test_span");
            std::hint::black_box(0u64);
        }
        {
            let _s = span("unit_test_span");
        }
        let s = snapshot();
        let stat = s.spans.iter().find(|s| s.name == "unit_test_span").unwrap();
        assert_eq!(stat.count, 2);
        set_enabled(false);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let _g = locked();
        set_enabled(true);
        reset();
        record_chunk_ns(1); // bucket 0
        record_chunk_ns(1024); // bucket 10
        record_chunk_ns(1100); // bucket 10
        record_chunk_ns(u64::MAX); // clamped to last bucket
        let s = snapshot();
        assert_eq!(s.chunk_hist[0], 1);
        assert_eq!(s.chunk_hist[10], 2);
        assert_eq!(s.chunk_hist[HIST_BUCKETS - 1], 1);
        set_enabled(false);
    }

    #[test]
    fn snapshot_json_shape() {
        let _g = locked();
        set_enabled(true);
        reset();
        add(Counter::ChunkClaims, 3);
        let v = snapshot().to_json();
        let text = gncg_json::to_string(&v);
        assert!(text.contains("\"chunk_claims\":3"));
        assert!(text.contains("\"spans\":[]"));
        set_enabled(false);
    }
}
