//! gncg-service: a long-lived concurrent job engine over the GNCG
//! solvers.
//!
//! Repro binaries and the CLI used to call the solver crates directly,
//! each invocation owning the whole process. A [`Session`] instead keeps
//! its own worker threads alive and accepts typed jobs — certification,
//! dynamics runs, whole sweeps — that run concurrently and resolve
//! through [`JobHandle`]s to the *same* result types the direct calls
//! return ([`CertifyReport`], [`dynamics::Outcome`], …).
//! Because every kernel underneath is deterministic-by-construction
//! (per-index maps, sequential folds, lowest-index tie-breaks), results are
//! bit-identical to the sequential path no matter how jobs interleave.
//!
//! # Admission control and backpressure
//!
//! Jobs enter one of two bounded lanes by [`Priority`]: `Interactive`
//! (certify probes, dynamics runs) or `Batch` (sweeps). A full lane
//! rejects at submit time with [`SubmitError::QueueFull`] — callers see
//! backpressure instead of the engine buffering unboundedly. Dispatch
//! prefers the interactive lane but lets a batch job through after
//! every few interactive ones, so a long sweep neither starves probes
//! nor is starved by them.
//!
//! # Budgets, cancellation, shutdown
//!
//! Every job carries its own [`Budget`] (defaulting to the session's
//! configured budget): [`JobHandle::cancel`] trips its token, a queued
//! job whose budget is already exhausted resolves to
//! [`JobError::Cancelled`] without running, and certify jobs thread the
//! budget into their [`SolverConfig`] so mid-flight cancellation
//! degrades along the existing exact→certified ladder rather than
//! aborting. [`Session::shutdown`] either drains
//! ([`Shutdown::Drain`]) or cancels every outstanding budget
//! ([`Shutdown::Cancel`]) — sweep closures observe the cancellation via
//! their [`JobCtx`] and can checkpoint before returning.
//!
//! # Fault isolation and observability
//!
//! Each job runs under `catch_unwind`: a panicking job resolves its own
//! handle to [`JobError::Panicked`] and *nothing else* — the workers and
//! every other job are untouched. A panic that escapes that envelope (an
//! observer's, see [`Session::submit_observed`]) is caught by the worker,
//! which stays alive, and is re-raised from [`Session::wait_idle`]. Each
//! job opens a `service.job.*` trace span, and the service keeps
//! deterministic admission counters (`service_enqueued`,
//! `service_dequeued`, `service_rejected`, and `pool_jobs` for the
//! tickets its workers run).
//!
//! # Result cache
//!
//! A [`Session`] holds no cache: every submit runs its job. The
//! content-addressed [`cache::ResultCache`] lives here so the tiers
//! above share one type, but only the sweep engine (`gncg-sweep`) gets
//! from or puts to it, before and after the certify job it submits.

pub mod cache;

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use gncg_game::certify::CertifyReport;
use gncg_game::{dynamics, EdgeWeights, OwnedNetwork, SolverConfig};
use gncg_parallel::{fault, with_budget, Budget};

/// Shared-ownership edge-weight oracle a job can be built over.
pub type SharedWeights = Arc<dyn EdgeWeights + Send + Sync>;

/// Which lane a job is dispatched from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Small, latency-sensitive work (certify probes, dynamics runs).
    Interactive,
    /// Long-running work (sweeps) that must not crowd out the
    /// interactive lane.
    Batch,
}

/// The kind of a job, for trace spans and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A (β, γ) certification of one profile.
    Certify,
    /// A response-dynamics run.
    Dynamics,
    /// A caller-supplied sweep closure (typically a checkpointing
    /// experiment driver).
    Sweep,
}

impl JobKind {
    /// The trace-span name jobs of this kind run under.
    pub fn span_name(self) -> &'static str {
        match self {
            JobKind::Certify => "service.job.certify",
            JobKind::Dynamics => "service.job.dynamics",
            JobKind::Sweep => "service.job.sweep",
        }
    }

    /// The lane jobs of this kind are dispatched from.
    pub fn priority(self) -> Priority {
        match self {
            JobKind::Certify | JobKind::Dynamics => Priority::Interactive,
            JobKind::Sweep => Priority::Batch,
        }
    }

    /// The `(ambient, cancel_on_exhaust)` budget wiring the typed
    /// `submit_*` methods use for this kind. Certification carries the
    /// budget inside its options (`ambient = false`) so the poly-time
    /// fallback bounds stay sound; dynamics installs it ambiently and
    /// maps exhaustion to [`JobError::Cancelled`] (a truncated
    /// trajectory is partial garbage); sweeps install it ambiently but
    /// return their checkpointed partials on purpose. Generic callers
    /// ([`Session::submit_observed`]) get identical semantics per kind.
    pub fn budget_wiring(self) -> (bool, bool) {
        match self {
            JobKind::Certify => (false, false),
            JobKind::Dynamics => (true, true),
            JobKind::Sweep => (true, false),
        }
    }
}

/// Why a job did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's body panicked; the payload's message. Only this job is
    /// affected — the workers and all other jobs keep running.
    Panicked(String),
    /// The job's budget was exhausted/cancelled before it started (or,
    /// for dynamics, before it finished).
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The target lane is at capacity; retry later or shed load.
    QueueFull {
        /// The lane that was full.
        priority: Priority,
        /// Its configured capacity.
        capacity: usize,
    },
    /// The session is shutting down and admits no new jobs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { priority, capacity } => {
                write!(f, "{priority:?} lane full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "session is shutting down"),
        }
    }
}

/// Per-submission knobs. `Default` means the session's default budget.
/// A job's lane follows from its kind ([`JobKind::priority`]).
#[derive(Debug, Clone, Default)]
pub struct JobOptions {
    /// Override the job budget (default: the session's configured
    /// budget, unlimited unless `GNCG_BUDGET_MS`/the builder set one).
    pub budget: Option<Budget>,
}

impl JobOptions {
    /// Options running the job under (a clone of) `budget`.
    pub fn with_budget(budget: &Budget) -> Self {
        Self {
            budget: Some(budget.clone()),
        }
    }
}

/// Context handed to sweep closures: the job's budget, to poll for
/// cooperative cancellation (and checkpoint before returning).
pub struct JobCtx {
    budget: Budget,
}

impl JobCtx {
    /// The job's budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Has the job been cancelled (handle, shutdown, or deadline)?
    pub fn cancelled(&self) -> bool {
        self.budget.exhausted()
    }
}

// ---------------------------------------------------------------------------
// Job handles
// ---------------------------------------------------------------------------

struct HandleState<T> {
    slot: Mutex<Option<Result<T, JobError>>>,
    cond: Condvar,
}

impl<T> HandleState<T> {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn fulfill(&self, result: Result<T, JobError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(result);
        self.cond.notify_all();
    }
}

/// A pending job's result slot. Obtained from the `Session::submit_*`
/// methods; resolve with [`JobHandle::wait`], abort with
/// [`JobHandle::cancel`].
pub struct JobHandle<T> {
    state: Arc<HandleState<T>>,
    budget: Budget,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// Block until the job resolves and take its result.
    pub fn wait(self) -> Result<T, JobError> {
        let mut slot = self.state.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .state
                .cond
                .wait(slot)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Has the job resolved (successfully or not)?
    pub fn is_done(&self) -> bool {
        self.state
            .slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }

    /// Request cancellation: trips the job's budget token. A job still
    /// queued resolves to [`JobError::Cancelled`] without running; a
    /// running certify job degrades along the exact→certified ladder; a
    /// running sweep observes it via [`JobCtx::cancelled`].
    pub fn cancel(&self) {
        self.budget.cancel();
    }
}

// ---------------------------------------------------------------------------
// Session internals
// ---------------------------------------------------------------------------

/// How [`Session::shutdown`] treats outstanding jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Stop admitting, run everything already queued to completion.
    Drain,
    /// Stop admitting and cancel every outstanding budget: queued jobs
    /// resolve to [`JobError::Cancelled`] without running, running
    /// certify jobs degrade, running sweeps checkpoint and return early.
    Cancel,
}

struct Ticket {
    run: Box<dyn FnOnce(&JobCtx) + Send>,
    budget: Budget,
    kind: JobKind,
    id: u64,
}

struct Lanes {
    interactive: VecDeque<Ticket>,
    batch: VecDeque<Ticket>,
    /// Consecutive interactive dispatches since the last batch one.
    interactive_streak: u32,
    /// Jobs admitted but not yet fulfilled (queued + running).
    outstanding: usize,
    /// Budgets of every outstanding job, for `Shutdown::Cancel`.
    active_budgets: HashMap<u64, Budget>,
    /// `Some` once any [`Session::shutdown`] call has started. Holds the
    /// *strongest* mode requested so far ([`Shutdown::Cancel`] wins);
    /// admission rejects whenever this is set, and workers exit once it
    /// is set and both lanes are empty.
    shutdown_mode: Option<Shutdown>,
    next_id: u64,
    /// The first panic that escaped a job's envelope since the last
    /// [`Session::wait_idle`], which re-raises it.
    escaped: Option<Box<dyn std::any::Any + Send>>,
}

impl Lanes {
    /// The highest-priority eligible ticket, if any is queued.
    fn pop(&mut self) -> Option<Ticket> {
        let take_batch = !self.batch.is_empty()
            && (self.interactive.is_empty() || self.interactive_streak >= MAX_INTERACTIVE_STREAK);
        if take_batch {
            self.interactive_streak = 0;
            self.batch.pop_front()
        } else if let Some(t) = self.interactive.pop_front() {
            self.interactive_streak += 1;
            Some(t)
        } else {
            None
        }
    }
}

struct Shared {
    lanes: Mutex<Lanes>,
    /// Signalled when a ticket is queued or shutdown begins: wakes the
    /// workers blocked in [`Shared::next_ticket`].
    work_cond: Condvar,
    /// Signalled when the last outstanding job resolves.
    idle_cond: Condvar,
    interactive_cap: usize,
    batch_cap: usize,
}

/// After this many consecutive interactive dispatches with batch work
/// waiting, one batch job is dispatched (anti-starvation).
const MAX_INTERACTIVE_STREAK: u32 = 3;

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Lanes> {
        self.lanes.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Block until a ticket is queued and take it; `None` once shutdown
    /// has begun and both lanes are empty (no admission can refill them).
    fn next_ticket(&self) -> Option<Ticket> {
        let mut lanes = self.lock();
        loop {
            if let Some(t) = lanes.pop() {
                return Some(t);
            }
            if lanes.shutdown_mode.is_some() {
                return None;
            }
            lanes = self
                .work_cond
                .wait(lanes)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    fn finish(&self, id: u64, escaped: Option<Box<dyn std::any::Any + Send>>) {
        let mut lanes = self.lock();
        lanes.active_budgets.remove(&id);
        lanes.outstanding -= 1;
        if lanes.escaped.is_none() {
            lanes.escaped = escaped;
        }
        if lanes.outstanding == 0 {
            self.idle_cond.notify_all();
        }
    }
}

/// One session worker: runs tickets in dispatch order until shutdown
/// empties the lanes. A panic that escapes a ticket's envelope is caught
/// here, so the worker survives it and the job still counts as finished.
fn worker_loop(shared: &Shared) {
    while let Some(Ticket {
        run,
        budget,
        kind,
        id,
    }) = shared.next_ticket()
    {
        // an injected fault at pickup is absorbed and the ticket still
        // runs: it soaks this catch without losing work
        let _ = catch_unwind(fault::fault_point);
        gncg_trace::incr(gncg_trace::Counter::PoolJobs);
        gncg_trace::incr(gncg_trace::Counter::ServiceDequeued);
        let escaped = catch_unwind(AssertUnwindSafe(|| {
            let _span = gncg_trace::span(kind.span_name());
            run(&JobCtx { budget });
        }))
        .err();
        // the worker outlives every job, so this job's counters must
        // merge before `wait_idle` can observe the job finished
        gncg_trace::flush_thread();
        shared.finish(id, escaped);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one job body under the service's panic/cancellation envelope and
/// return its resolution. `ambient` installs the job budget as the
/// ambient budget (dynamics, sweeps); certify jobs instead carry the
/// budget inside their options so the poly-time fallback bounds stay
/// sound. `cancel_on_exhaust` maps a post-run exhausted budget to
/// [`JobError::Cancelled`] (dynamics — a cancelled trajectory is
/// partial garbage; sweeps return checkpointed partials on purpose).
fn run_envelope<T>(
    ctx: &JobCtx,
    ambient: bool,
    cancel_on_exhaust: bool,
    work: impl FnOnce(&JobCtx) -> T,
) -> Result<T, JobError> {
    if ctx.budget.exhausted() {
        return Err(JobError::Cancelled);
    }
    let run = catch_unwind(AssertUnwindSafe(|| {
        if ambient {
            with_budget(&ctx.budget, || work(ctx))
        } else {
            work(ctx)
        }
    }));
    match run {
        Ok(_) if cancel_on_exhaust && ctx.budget.exhausted() => Err(JobError::Cancelled),
        Ok(v) => Ok(v),
        Err(payload) => Err(JobError::Panicked(panic_message(&*payload))),
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Builder for a [`Session`] (see [`Session::builder`]).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    threads: Option<usize>,
    default_budget_ms: Option<u64>,
    interactive_cap: usize,
    batch_cap: usize,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self {
            threads: None,
            default_budget_ms: None,
            interactive_cap: 256,
            batch_cap: 64,
        }
    }
}

impl SessionBuilder {
    /// Number of session workers, at least 1 (default:
    /// [`gncg_parallel::num_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Lane capacities (interactive, batch). Zero is clamped to 1.
    pub fn queue_capacity(mut self, interactive: usize, batch: usize) -> Self {
        self.interactive_cap = interactive.max(1);
        self.batch_cap = batch.max(1);
        self
    }

    /// Build the session (spawns its workers).
    pub fn build(self) -> Session {
        let threads = self.threads.unwrap_or_else(gncg_parallel::num_threads);
        let shared = Arc::new(Shared {
            lanes: Mutex::new(Lanes {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                interactive_streak: 0,
                outstanding: 0,
                active_budgets: HashMap::new(),
                shutdown_mode: None,
                next_id: 0,
                escaped: None,
            }),
            work_cond: Condvar::new(),
            idle_cond: Condvar::new(),
            interactive_cap: self.interactive_cap,
            batch_cap: self.batch_cap,
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Session {
            shared,
            workers,
            default_budget_ms: self.default_budget_ms,
        }
    }
}

/// A long-lived concurrent job engine (see the crate docs).
pub struct Session {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    default_budget_ms: Option<u64>,
}

impl Session {
    /// A session configured from the environment: the
    /// [`gncg_parallel::num_threads`] worker count and the
    /// `GNCG_BUDGET_MS` default job budget.
    pub fn new() -> Self {
        SessionBuilder {
            default_budget_ms: gncg_config::env::budget_ms(),
            ..SessionBuilder::default()
        }
        .build()
    }

    /// Start building a custom session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The budget a job submitted *now* with default [`JobOptions`]
    /// would run under.
    fn default_budget(&self) -> Budget {
        match self.default_budget_ms {
            Some(ms) => Budget::with_limit(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        }
    }

    /// Admission: queue the job's ticket in the right lane and wake a
    /// worker.
    fn admit(
        &self,
        kind: JobKind,
        priority: Priority,
        budget: Budget,
        run: Box<dyn FnOnce(&JobCtx) + Send>,
    ) -> Result<(), SubmitError> {
        {
            let mut lanes = self.shared.lock();
            if lanes.shutdown_mode.is_some() {
                gncg_trace::incr(gncg_trace::Counter::ServiceRejected);
                return Err(SubmitError::ShuttingDown);
            }
            let (lane_len, cap) = match priority {
                Priority::Interactive => (lanes.interactive.len(), self.shared.interactive_cap),
                Priority::Batch => (lanes.batch.len(), self.shared.batch_cap),
            };
            if lane_len >= cap {
                gncg_trace::incr(gncg_trace::Counter::ServiceRejected);
                return Err(SubmitError::QueueFull {
                    priority,
                    capacity: cap,
                });
            }
            let id = lanes.next_id;
            lanes.next_id += 1;
            lanes.outstanding += 1;
            lanes.active_budgets.insert(id, budget.clone());
            let ticket = Ticket {
                run,
                budget,
                kind,
                id,
            };
            match priority {
                Priority::Interactive => lanes.interactive.push_back(ticket),
                Priority::Batch => lanes.batch.push_back(ticket),
            }
        }
        gncg_trace::incr(gncg_trace::Counter::ServiceEnqueued);
        self.shared.work_cond.notify_one();
        Ok(())
    }

    /// [`Session::submit_observed`] without an observer: the typed
    /// submits' one admission path.
    fn submit_raw<T: Send + 'static>(
        &self,
        kind: JobKind,
        job: JobOptions,
        work: impl FnOnce(&JobCtx) -> T + Send + 'static,
    ) -> Result<JobHandle<T>, SubmitError> {
        self.submit_observed(kind, job, work, |_| {})
    }

    /// Submit a job with an observer: `done` is invoked **exactly once**
    /// for every admitted job, on the worker thread that resolved it,
    /// with the job's resolution — including jobs cancelled before they
    /// start and jobs that panic. The observer runs *before* the handle
    /// fulfills, so a caller that both observes and waits sees the
    /// callback strictly first. If the observer itself panics, the
    /// handle still fulfills, and the panic is re-raised from the next
    /// [`Session::wait_idle`] (or [`Session::shutdown`]).
    ///
    /// The budget wiring (`ambient`, `cancel_on_exhaust`) is derived
    /// from the kind via [`JobKind::budget_wiring`], so an observed
    /// certify behaves exactly like [`Session::submit_certify`] — this
    /// is the hook the `gncg-serve` wire layer uses to stream results
    /// without parking a waiter thread per job.
    ///
    /// `work` receives the job's [`JobCtx`]; certify callers must thread
    /// [`JobCtx::budget`] into their [`SolverConfig`] exactly as the
    /// typed submits do, or the degradation ladder will not engage.
    pub fn submit_observed<T, F, D>(
        &self,
        kind: JobKind,
        job: JobOptions,
        work: F,
        done: D,
    ) -> Result<JobHandle<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce(&JobCtx) -> T + Send + 'static,
        D: FnOnce(&Result<T, JobError>) + Send + 'static,
    {
        let (ambient, cancel_on_exhaust) = kind.budget_wiring();
        let priority = kind.priority();
        let budget = job.budget.unwrap_or_else(|| self.default_budget());
        let state = HandleState::new();
        let run_state = Arc::clone(&state);
        self.admit(
            kind,
            priority,
            budget.clone(),
            Box::new(move |ctx| {
                let result = run_envelope(ctx, ambient, cancel_on_exhaust, work);
                let observed = catch_unwind(AssertUnwindSafe(|| done(&result)));
                run_state.fulfill(result);
                if let Err(payload) = observed {
                    resume_unwind(payload);
                }
            }),
        )?;
        Ok(JobHandle { state, budget })
    }

    /// Submit a (β, γ) certification job. The job budget replaces
    /// `cfg.budget`, so [`JobHandle::cancel`] degrades the report along
    /// the exact→certified ladder exactly as a direct budgeted
    /// [`gncg_game::certify::certify`] call would.
    pub fn submit_certify(
        &self,
        w: SharedWeights,
        net: OwnedNetwork,
        alpha: f64,
        cfg: SolverConfig,
        job: JobOptions,
    ) -> Result<JobHandle<CertifyReport>, SubmitError> {
        self.submit_raw(JobKind::Certify, job, move |ctx| {
            gncg_game::certify::certify(&*w, &net, alpha, &cfg.with_budget(ctx.budget()))
        })
    }

    /// Submit a response-dynamics run under `cfg` (cost model +
    /// edge-formation rule; [`SolverConfig::default`]
    /// reproduces the historical behaviour exactly). A budget cancelled
    /// mid-run resolves the handle to [`JobError::Cancelled`] (a
    /// truncated trajectory has no sound fallback).
    #[allow(clippy::too_many_arguments)]
    pub fn submit_dynamics(
        &self,
        w: SharedWeights,
        start: OwnedNetwork,
        alpha: f64,
        rule: dynamics::ResponseRule,
        max_steps: usize,
        cfg: SolverConfig,
        job: JobOptions,
    ) -> Result<JobHandle<dynamics::Outcome>, SubmitError> {
        self.submit_raw(JobKind::Dynamics, job, move |_| {
            dynamics::run_spec(
                &*w,
                &start,
                alpha,
                rule,
                dynamics::AgentOrder::RoundRobin,
                max_steps,
                &cfg,
            )
        })
    }

    /// Submit a sweep closure (batch lane by default). The closure
    /// receives the job's [`JobCtx`] and should poll
    /// [`JobCtx::cancelled`] between units, checkpointing (e.g. via
    /// `SweepCheckpoint`) and returning early when cancelled; its return
    /// value resolves the handle either way.
    pub fn submit_sweep<T, F>(&self, job: JobOptions, f: F) -> Result<JobHandle<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce(&JobCtx) -> T + Send + 'static,
    {
        self.submit_raw(JobKind::Sweep, job, f)
    }

    /// Block until every admitted job has resolved. Workers flush their
    /// trace counters before a job counts as resolved, so worker-thread
    /// counters (e.g. `service_dequeued`) are in the process-wide totals
    /// when this returns.
    ///
    /// If a panic escaped a job's envelope (an observer's) since the
    /// last call, the first such panic is re-raised here once the
    /// session is idle; the session stays usable.
    pub fn wait_idle(&self) {
        let escaped = {
            let mut lanes = self.shared.lock();
            while lanes.outstanding > 0 {
                lanes = self
                    .shared
                    .idle_cond
                    .wait(lanes)
                    .unwrap_or_else(|p| p.into_inner());
            }
            lanes.escaped.take()
        };
        if let Some(payload) = escaped {
            resume_unwind(payload);
        }
    }

    /// Shut the session down: stop admitting, then either drain or
    /// cancel outstanding work, and block until idle.
    ///
    /// # Idempotence and concurrent-shutdown ordering
    ///
    /// `shutdown` may be called any number of times, from any threads,
    /// concurrently — the canonical race being a signal handler calling
    /// `shutdown(Cancel)` while `Drop` runs `shutdown(Drain)`. The
    /// resolution is monotone under one lock:
    ///
    /// - the session records the **strongest** mode requested so far
    ///   ([`Shutdown::Cancel`] > [`Shutdown::Drain`]); a later `Drain`
    ///   never de-escalates an earlier `Cancel`;
    /// - the first `Cancel` to arrive cancels every outstanding budget
    ///   exactly once, *including jobs admitted after an earlier
    ///   `Drain` began waiting* (none can exist, since admission closes
    ///   with the first call, but queued-not-yet-run jobs are covered);
    /// - every caller blocks in [`Session::wait_idle`] until all
    ///   admitted jobs have resolved, so whichever of `Drop`/signal
    ///   returns last still observes a fully quiesced session.
    ///
    /// Hence `Drain ∥ Cancel` in any interleaving behaves like `Cancel`
    /// for all still-queued work, and repeated calls are no-ops beyond
    /// the wait.
    pub fn shutdown(&self, mode: Shutdown) {
        {
            let mut lanes = self.shared.lock();
            let escalate = match (lanes.shutdown_mode, mode) {
                (None, m) => {
                    lanes.shutdown_mode = Some(m);
                    m == Shutdown::Cancel
                }
                (Some(Shutdown::Drain), Shutdown::Cancel) => {
                    lanes.shutdown_mode = Some(Shutdown::Cancel);
                    true
                }
                // repeat Drain, repeat Cancel, or Drain-after-Cancel:
                // nothing to change (budgets are already cancelled and
                // admission is already closed)
                _ => false,
            };
            if escalate {
                for budget in lanes.active_budgets.values() {
                    budget.cancel();
                }
            }
        }
        // idle workers wake to exit once the lanes drain
        self.shared.work_cond.notify_all();
        self.wait_idle();
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // a dropped session must not abandon admitted jobs: their
        // handles would never resolve. An escaped panic no `wait_idle`
        // took is dropped here, since Drop must not panic; workers catch
        // every job's panic, so their joins cannot fail.
        let _ = catch_unwind(AssertUnwindSafe(|| self.shutdown(Shutdown::Drain)));
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    fn small_instance(n: usize, seed: u64) -> (SharedWeights, OwnedNetwork) {
        let ps = generators::uniform_unit_square(n, seed);
        let net = OwnedNetwork::center_star(n, 0);
        (Arc::new(ps), net)
    }

    #[test]
    fn certify_job_matches_direct_call() {
        let (w, net) = small_instance(6, 3);
        let direct = gncg_game::certify::certify(&*w, &net, 1.5, &SolverConfig::exact());
        let session = Session::builder().threads(2).build();
        let handle = session
            .submit_certify(
                Arc::clone(&w),
                net.clone(),
                1.5,
                SolverConfig::exact(),
                JobOptions::default(),
            )
            .expect("admitted");
        let report = handle.wait().expect("job succeeded");
        assert_eq!(
            report.beta_exact.unwrap().to_bits(),
            direct.beta_exact.unwrap().to_bits()
        );
        assert_eq!(report.social_cost.to_bits(), direct.social_cost.to_bits());
        assert_eq!(
            report.gamma_exact.unwrap().to_bits(),
            direct.gamma_exact.unwrap().to_bits()
        );
    }

    #[test]
    fn panicking_sweep_fails_alone() {
        let session = Session::builder().threads(2).build();
        let bad = session
            .submit_sweep(JobOptions::default(), |_| -> i32 {
                panic!("sweep blew up")
            })
            .expect("admitted");
        let good = session
            .submit_sweep(JobOptions::default(), |_| 41 + 1)
            .expect("admitted");
        match bad.wait() {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("sweep blew up")),
            other => panic!("expected panic, got {other:?}"),
        }
        assert_eq!(good.wait(), Ok(42));
        // the workers stay healthy for later submissions
        let again = session
            .submit_sweep(JobOptions::default(), |_| 7)
            .expect("admitted");
        assert_eq!(again.wait(), Ok(7));
    }

    #[test]
    fn cancelled_before_start_never_runs() {
        let session = Session::builder().threads(1).build();
        let dead = Budget::unlimited();
        dead.cancel();
        let handle = session
            .submit_sweep(JobOptions::with_budget(&dead), |_| 1)
            .expect("admitted");
        assert_eq!(handle.wait(), Err(JobError::Cancelled));
    }

    #[test]
    fn queue_full_rejects_with_backpressure() {
        // a 1-worker session occupied by a blocker, with a 1-deep batch
        // lane: the next-but-one batch submission must be rejected
        let session = Session::builder().threads(1).queue_capacity(1, 1).build();
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let blocker = session
            .submit_sweep(JobOptions::default(), move |_| {
                block_rx.recv().ok();
                0
            })
            .expect("admitted");
        // wait until the blocker has been dequeued, so the lane is empty
        while !{
            let lanes = session.shared.lock();
            lanes.batch.is_empty()
        } {
            std::thread::yield_now();
        }
        let queued = session
            .submit_sweep(JobOptions::default(), |_| 1)
            .expect("one fits in the lane");
        let rejected = session.submit_sweep(JobOptions::default(), |_| 2);
        match rejected {
            Err(SubmitError::QueueFull { priority, capacity }) => {
                assert_eq!(priority, Priority::Batch);
                assert_eq!(capacity, 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        block_tx.send(()).unwrap();
        assert_eq!(blocker.wait(), Ok(0));
        assert_eq!(queued.wait(), Ok(1));
    }

    #[test]
    fn batch_not_starved_by_interactive_stream() {
        // 1 worker, a stream of interactive jobs queued ahead of one
        // batch job: the batch job must be dispatched after at most
        // MAX_INTERACTIVE_STREAK interactive ones, not last
        let session = Session::builder().threads(1).build();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        // certify-kind jobs run in the interactive lane
        let blocker = session
            .submit_observed(
                JobKind::Certify,
                JobOptions::default(),
                move |_| {
                    block_rx.recv().ok();
                    0usize
                },
                |_| {},
            )
            .expect("admitted");
        let mut handles = Vec::new();
        for i in 0..8usize {
            let order = Arc::clone(&order);
            handles.push(
                session
                    .submit_observed(
                        JobKind::Certify,
                        JobOptions::default(),
                        move |_| {
                            order.lock().unwrap().push(format!("i{i}"));
                            i
                        },
                        |_| {},
                    )
                    .expect("admitted"),
            );
        }
        let border = Arc::clone(&order);
        let batch = session
            .submit_sweep(JobOptions::default(), move |_| {
                border.lock().unwrap().push("batch".to_string());
                99usize
            })
            .expect("admitted");
        block_tx.send(()).unwrap();
        blocker.wait().unwrap();
        for h in handles {
            h.wait().unwrap();
        }
        batch.wait().unwrap();
        let order = order.lock().unwrap();
        let pos = order.iter().position(|s| s == "batch").unwrap();
        assert!(
            pos <= MAX_INTERACTIVE_STREAK as usize,
            "batch dispatched at position {pos} of {order:?}"
        );
    }

    /// A sweep job that signals once it is running on the worker, then
    /// blocks until released. The handshake makes the shutdown tests
    /// deterministic: without it, `shutdown(Cancel)` can win the race
    /// to the lane and cancel the *blocker* before the worker dequeues
    /// it, dropping the receiver and poisoning the release send.
    fn blocking_sweep(session: &Session) -> (JobHandle<i32>, std::sync::mpsc::Sender<()>) {
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let blocker = session
            .submit_sweep(JobOptions::default(), move |_| {
                started_tx.send(()).ok();
                block_rx.recv().ok();
                0
            })
            .expect("admitted");
        started_rx.recv().expect("blocker reached the worker");
        (blocker, block_tx)
    }

    #[test]
    fn shutdown_cancel_resolves_queued_jobs_as_cancelled() {
        let session = Session::builder().threads(1).build();
        let (blocker, block_tx) = blocking_sweep(&session);
        let queued = session
            .submit_sweep(JobOptions::default(), |_| 1)
            .expect("admitted");
        // cancel *before* the blocker is released, so the queued job is
        // deterministically still in the lane when its budget trips
        std::thread::scope(|s| {
            let t = s.spawn(|| session.shutdown(Shutdown::Cancel));
            while !queued.budget.exhausted() {
                std::thread::yield_now();
            }
            block_tx.send(()).unwrap();
            t.join().unwrap();
        });
        assert_eq!(queued.wait(), Err(JobError::Cancelled));
        assert_eq!(blocker.wait(), Ok(0));
        // no new admissions after shutdown
        match session.submit_sweep(JobOptions::default(), |_| 2) {
            Err(SubmitError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_drain_and_cancel_shutdown_is_race_free() {
        // the canonical double-shutdown: a signal path calls
        // shutdown(Cancel) while Drop (or another thread) calls
        // shutdown(Drain). Both must return, the stronger mode must
        // win for still-queued work, and nothing may deadlock.
        for round in 0..8u64 {
            let session = Session::builder().threads(1).build();
            let (blocker, block_tx) = blocking_sweep(&session);
            let queued = session
                .submit_sweep(JobOptions::default(), |_| 1)
                .expect("admitted");
            std::thread::scope(|s| {
                // alternate which mode races ahead
                let (first, second) = if round % 2 == 0 {
                    (Shutdown::Drain, Shutdown::Cancel)
                } else {
                    (Shutdown::Cancel, Shutdown::Drain)
                };
                let session = &session;
                let t1 = s.spawn(move || session.shutdown(first));
                let t2 = s.spawn(move || session.shutdown(second));
                // Cancel participated, so the queued job's budget must
                // trip even while the blocker still occupies the worker
                while !queued.budget.exhausted() {
                    std::thread::yield_now();
                }
                block_tx.send(()).unwrap();
                t1.join().unwrap();
                t2.join().unwrap();
            });
            assert_eq!(blocker.wait(), Ok(0));
            assert_eq!(queued.wait(), Err(JobError::Cancelled));
            // a third, late shutdown is a no-op that still returns
            session.shutdown(Shutdown::Drain);
            session.shutdown(Shutdown::Cancel);
            // Drop will run shutdown(Drain) once more — also a no-op
        }
    }

    #[test]
    fn shutdown_drain_then_cancel_escalates_once() {
        let session = Session::builder().threads(1).build();
        let (blocker, block_tx) = blocking_sweep(&session);
        let queued = session
            .submit_sweep(JobOptions::default(), |_| 1)
            .expect("admitted");
        std::thread::scope(|s| {
            let drain = s.spawn(|| session.shutdown(Shutdown::Drain));
            // Drain alone must not cancel anything
            assert!(!queued.budget.exhausted());
            let cancel = s.spawn(|| session.shutdown(Shutdown::Cancel));
            while !queued.budget.exhausted() {
                std::thread::yield_now();
            }
            block_tx.send(()).unwrap();
            drain.join().unwrap();
            cancel.join().unwrap();
        });
        assert_eq!(queued.wait(), Err(JobError::Cancelled));
        assert_eq!(blocker.wait(), Ok(0));
    }

    #[test]
    fn observed_done_callback_fires_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let session = Session::builder().threads(2).build();
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let handle = session
            .submit_observed(
                JobKind::Sweep,
                JobOptions::default(),
                |_| 40 + 2,
                move |r| {
                    assert_eq!(r, &Ok(42));
                    c.fetch_add(1, Ordering::SeqCst);
                },
            )
            .expect("admitted");
        assert_eq!(handle.wait(), Ok(42));
        // observer ran before the handle fulfilled
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        session.wait_idle();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn observed_callback_covers_cancelled_and_panicked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let session = Session::builder().threads(1).build();
        // cancelled before start: never runs, but the observer still fires
        let dead = Budget::unlimited();
        dead.cancel();
        let cancelled_seen = Arc::new(AtomicUsize::new(0));
        let cs = Arc::clone(&cancelled_seen);
        let h1 = session
            .submit_observed(
                JobKind::Sweep,
                JobOptions::with_budget(&dead),
                |_| 1,
                move |r| {
                    assert_eq!(r, &Err(JobError::Cancelled));
                    cs.fetch_add(1, Ordering::SeqCst);
                },
            )
            .expect("admitted");
        // panicking body: the observer sees Panicked, the worker survives
        let panicked_seen = Arc::new(AtomicUsize::new(0));
        let ps = Arc::clone(&panicked_seen);
        let h2 = session
            .submit_observed(
                JobKind::Sweep,
                JobOptions::default(),
                |_| -> i32 { panic!("observed boom") },
                move |r| {
                    assert!(matches!(r, Err(JobError::Panicked(m)) if m.contains("observed boom")));
                    ps.fetch_add(1, Ordering::SeqCst);
                },
            )
            .expect("admitted");
        assert_eq!(h1.wait(), Err(JobError::Cancelled));
        assert!(matches!(h2.wait(), Err(JobError::Panicked(_))));
        assert_eq!(cancelled_seen.load(Ordering::SeqCst), 1);
        assert_eq!(panicked_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn observed_certify_matches_typed_submit_bit_for_bit() {
        let (w, net) = small_instance(6, 9);
        let session = Session::builder().threads(2).build();
        let typed = session
            .submit_certify(
                Arc::clone(&w),
                net.clone(),
                1.5,
                SolverConfig::exact(),
                JobOptions::default(),
            )
            .expect("admitted")
            .wait()
            .expect("typed ok");
        let wo = Arc::clone(&w);
        let no = net.clone();
        let observed = session
            .submit_observed(
                JobKind::Certify,
                JobOptions::default(),
                move |ctx| {
                    gncg_game::certify::certify(
                        &*wo,
                        &no,
                        1.5,
                        &SolverConfig::exact().with_budget(ctx.budget()),
                    )
                },
                |_| {},
            )
            .expect("admitted")
            .wait()
            .expect("observed ok");
        assert_eq!(
            typed.beta_exact.unwrap().to_bits(),
            observed.beta_exact.unwrap().to_bits()
        );
        assert_eq!(typed.social_cost.to_bits(), observed.social_cost.to_bits());
    }
}
