//! The TCP server: connection supervision, multi-tenant quotas,
//! idempotency, and graceful drain over one [`Session`].
//!
//! # Threading model
//!
//! One nonblocking accept loop, one signal monitor, and per connection a
//! **reader** and a **writer** thread. The reader decodes frames with a
//! stateful [`FrameReader`] under a short read timeout (so it can watch
//! the stop flag); the writer drains a *bounded* channel of responses
//! with a write timeout. Backpressure discipline: when a client's
//! outbound buffer fills or a write times out, that connection is
//! *reaped* — socket shut down, threads unwound — rather than letting
//! one stalled reader wedge dispatch or grow memory. Results for reaped
//! connections stay cached under their idempotency keys, so the client
//! reconnects and replays.
//!
//! Both per-connection threads run under `catch_unwind` supervision: a
//! panic kills that connection only and is counted in
//! [`ServerStats::conns_panicked`].
//!
//! # Admission pipeline
//!
//! `submit` passes, in order: idempotency replay (cached or attach) →
//! drain check → per-client quota → session lane admission. Each
//! rejection is a typed [`ErrorCode`] frame; each acceptance eventually
//! produces exactly one `result` frame per waiter — accepted jobs are
//! **never silently dropped** (see [`ServerStats`] for the accounting
//! invariant). The per-client idempotency cache currently grows with
//! the number of distinct keys; long-lived deployments should recycle
//! client ids per session.

use crate::proto::{ErrorCode, EventKind, JobSpec, RemoteError, Request, Response, MAX_FRAME};
use gncg_config::ServeConfig;
use gncg_json::frame::{FrameError, FrameReader};
use gncg_json::{FromJson, ToJson, Value};
use gncg_parallel::Budget;
use gncg_service::{JobError, JobHandle, JobOptions, Session, Shutdown, SubmitError};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum simultaneously-open client connections. Excess connects are
/// closed on accept.
const MAX_CONNS: usize = 512;

/// Per-client cap on outstanding (admitted, unresolved) jobs, layered
/// *on top of* the session's two-lane queue capacities: one tenant
/// exhausting its quota cannot occupy another tenant's lane slots.
/// Reported to each client in `hello_ok`.
const QUOTA: usize = 16;

/// Per-connection socket write timeout. A write that stalls this long
/// marks the client dead and reaps the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Bounded per-connection outbound buffer, in frames. A slow reader
/// whose buffer stays full is disconnected instead of wedging dispatch.
const OUTBUF_FRAMES: usize = 1024;

/// Point-in-time accounting snapshot. After a completed drain the
/// invariant `accepted == completed + cancelled + panicked` holds:
/// every accepted job resolved one way and its result was delivered or
/// cached — none vanished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// New submissions admitted into the session (idempotent replays
    /// and attaches not included).
    pub accepted: u64,
    /// Submissions answered from the idempotency cache or attached to
    /// an in-flight job.
    pub replayed: u64,
    /// Submissions rejected (drain, quota, lane backpressure, bad
    /// request).
    pub rejected: u64,
    /// Accepted jobs that resolved with a payload.
    pub completed: u64,
    /// Accepted jobs that resolved `cancelled`.
    pub cancelled: u64,
    /// Accepted jobs whose body panicked (isolated, reported).
    pub panicked: u64,
    /// Connections accepted over the server's lifetime.
    pub conns_opened: u64,
    /// Connections killed by a supervised reader/writer panic.
    pub conns_panicked: u64,
}

/// A connection's request waiting for a job's events and result.
#[derive(Clone, Copy)]
struct Waiter {
    conn: u64,
    req: u64,
}

enum IdemEntry {
    /// The job is queued or running; `handle` carries the cancel hook.
    InFlight {
        handle: JobHandle<Value>,
        waiters: Vec<Waiter>,
    },
    /// The job resolved; replays answer from this cache.
    Done(Result<Value, RemoteError>),
}

#[derive(Default)]
struct State {
    /// (client, idem key) → job entry.
    idem: HashMap<(String, String), IdemEntry>,
    /// client → outstanding (accepted, unresolved) jobs.
    quotas: HashMap<String, usize>,
}

struct ConnHandle {
    tx: SyncSender<Response>,
    sock: TcpStream,
}

struct Inner {
    session: Session,
    state: Mutex<State>,
    conns: Mutex<HashMap<u64, ConnHandle>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    draining: AtomicBool,
    cancelling: AtomicBool,
    stop: AtomicBool,
    stats: Mutex<ServerStats>,
}

impl Inner {
    /// Add one to the tally `field` selects.
    fn count(&self, field: fn(&mut ServerStats) -> &mut u64) {
        *field(&mut self.stats.lock().unwrap_or_else(|p| p.into_inner())) += 1;
    }

    fn snapshot(&self) -> ServerStats {
        *self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Count a rejected submission and answer it with a typed error.
    fn reject(&self, conn_id: u64, req: u64, code: ErrorCode, message: &str) {
        self.count(|s| &mut s.rejected);
        gncg_trace::incr(gncg_trace::Counter::ServeRejected);
        let (req, message) = (Some(req), message.to_string());
        self.send_to_conn(conn_id, Response::Error { req, code, message });
    }

    /// Queue a response to a connection; absent or saturated
    /// connections are handled per the reaping discipline.
    fn send_to_conn(&self, conn_id: u64, resp: Response) {
        let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        let Some(handle) = conns.get(&conn_id) else {
            return; // connection gone; result stays cached under its idem key
        };
        if handle.tx.try_send(resp).is_err() {
            // a slow reader (buffer full) or a dead writer: reap the
            // connection rather than block or buffer
            let _ = handle.sock.shutdown(std::net::Shutdown::Both);
            conns.remove(&conn_id);
        }
    }

    fn broadcast(&self, resp: &Response) {
        let conn_ids: Vec<u64> = {
            let conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            conns.keys().copied().collect()
        };
        for id in conn_ids {
            self.send_to_conn(id, resp.clone());
        }
    }

    /// Are all accepted jobs resolved (no `InFlight` entries)?
    fn quiesced(&self) -> bool {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        !state
            .idem
            .values()
            .any(|e| matches!(e, IdemEntry::InFlight { .. }))
    }
}

/// A running serve instance (see the module docs).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` (use port 0 for an ephemeral test port) and
    /// start serving `session`. The SIGTERM monitor watches
    /// [`crate::signal::term_count`] *relative to bind time*: the first
    /// increment drains, the second escalates to cancel. Install the
    /// handler with [`crate::signal::install_sigterm_handler`] first if
    /// signal-driven drain is wanted.
    pub fn bind(session: Session, cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            session,
            state: Mutex::new(State::default()),
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            cancelling: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            stats: Mutex::default(),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(accept_inner, listener));
        let monitor_inner = Arc::clone(&inner);
        let term_base = crate::signal::term_count();
        let monitor = std::thread::spawn(move || {
            while !monitor_inner.stop.load(Ordering::SeqCst) {
                let terms = crate::signal::term_count().saturating_sub(term_base);
                if terms >= 2 && !monitor_inner.cancelling.load(Ordering::SeqCst) {
                    begin_cancel(&monitor_inner);
                } else if terms >= 1 && !monitor_inner.draining.load(Ordering::SeqCst) {
                    begin_drain(&monitor_inner);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
            monitor: Some(monitor),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying session: binaries embedding a server can submit
    /// local jobs beside the remote ones (they share lanes, budgets,
    /// and drain semantics), and tests use it to control worker
    /// occupancy deterministically.
    pub fn session(&self) -> &Session {
        &self.inner.session
    }

    /// Operator/test hook: begin a graceful drain (same transition the
    /// first SIGTERM triggers).
    pub fn begin_drain(&self) {
        begin_drain(&self.inner);
    }

    /// Operator/test hook: escalate to cancel (same transition the
    /// second SIGTERM triggers). Implies drain.
    pub fn begin_cancel(&self) {
        begin_cancel(&self.inner);
    }

    /// Has a drain (or cancel) begun?
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Has the escalation to cancel begun (second SIGTERM or
    /// [`Server::begin_cancel`])? Once true, every in-flight job's
    /// budget has been tripped.
    pub fn is_cancelling(&self) -> bool {
        self.inner.cancelling.load(Ordering::SeqCst)
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner.snapshot()
    }

    /// Block until a drain has begun *and* every accepted job has
    /// resolved (delivered or cached). Returns `false` on timeout.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.inner.draining.load(Ordering::SeqCst) && self.inner.quiesced() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stop the server: close the listener loop, shut the session down
    /// ([`Shutdown::Cancel`] if a cancel was begun, else
    /// [`Shutdown::Drain`]), deliver/cache every pending result, close
    /// all connections, and return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        // session first: in-flight jobs finish (or cancel) and their
        // done-callbacks deliver results while connections still exist
        let mode = if self.inner.cancelling.load(Ordering::SeqCst) {
            Shutdown::Cancel
        } else {
            Shutdown::Drain
        };
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.session.shutdown(mode);
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.monitor.take() {
            let _ = t.join();
        }
        {
            let conns = self.inner.conns.lock().unwrap_or_else(|p| p.into_inner());
            for handle in conns.values() {
                let _ = handle.sock.shutdown(std::net::Shutdown::Both);
            }
        }
        // reader/writer threads observe the closed sockets and unwind
        let threads: Vec<JoinHandle<()>> = {
            let mut guard = self.inner.threads.lock().unwrap_or_else(|p| p.into_inner());
            guard.drain(..).collect()
        };
        for t in threads {
            let _ = t.join();
        }
        self.inner.snapshot()
    }
}

fn begin_drain(inner: &Inner) {
    if inner.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.broadcast(&Response::Draining);
}

fn begin_cancel(inner: &Inner) {
    begin_drain(inner);
    {
        let state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if inner.cancelling.load(Ordering::SeqCst) {
            return;
        }
        // trip every in-flight job's budget: queued jobs resolve
        // Cancelled without running, running jobs degrade/checkpoint —
        // each still resolves through its done-callback, so nothing is
        // dropped. The flag is published only after the sweep (under
        // the same lock admissions take), so `is_cancelling() == true`
        // really does mean every in-flight budget is tripped.
        for entry in state.idem.values() {
            if let IdemEntry::InFlight { handle, .. } = entry {
                handle.cancel();
            }
        }
        inner.cancelling.store(true, Ordering::SeqCst);
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((sock, _peer)) => {
                let open = inner.conns.lock().unwrap_or_else(|p| p.into_inner()).len();
                if inner.draining.load(Ordering::SeqCst) || open >= MAX_CONNS {
                    let _ = sock.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                inner.count(|s| &mut s.conns_opened);
                spawn_connection(&inner, sock);
            }
            // nothing pending (WouldBlock) or a failed accept: poll again
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_connection(inner: &Arc<Inner>, sock: TcpStream) {
    let conn_id = inner.next_conn.fetch_add(1, Ordering::SeqCst);
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = sock.set_write_timeout(Some(WRITE_TIMEOUT));
    let (tx, rx) = sync_channel::<Response>(OUTBUF_FRAMES);
    let (Ok(write_sock), Ok(handle_sock)) = (sock.try_clone(), sock.try_clone()) else {
        let _ = sock.shutdown(std::net::Shutdown::Both);
        return;
    };
    let handle = ConnHandle {
        tx,
        sock: handle_sock,
    };
    inner
        .conns
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(conn_id, handle);
    let reader_inner = Arc::clone(inner);
    let reader = std::thread::spawn(move || {
        // connection supervisor: a panicking handler kills this
        // connection only — the session, the pool, and every other
        // connection keep running
        let supervised = catch_unwind(AssertUnwindSafe(|| {
            // flush this thread's trace tallies even on panic unwind
            let _trace = gncg_trace::worker_guard();
            connection_reader(&reader_inner, conn_id, sock);
        }));
        if supervised.is_err() {
            reader_inner.count(|s| &mut s.conns_panicked);
        }
        // cleanup: unregister and wake the writer
        let mut conns = reader_inner.conns.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(handle) = conns.remove(&conn_id) {
            let _ = handle.sock.shutdown(std::net::Shutdown::Both);
        }
    });
    let writer_inner = Arc::clone(inner);
    let writer = std::thread::spawn(move || {
        let supervised = catch_unwind(AssertUnwindSafe(|| {
            let _trace = gncg_trace::worker_guard();
            connection_writer(&writer_inner, conn_id, write_sock, rx);
        }));
        if supervised.is_err() {
            writer_inner.count(|s| &mut s.conns_panicked);
        }
    });
    let mut threads = inner.threads.lock().unwrap_or_else(|p| p.into_inner());
    threads.push(reader);
    threads.push(writer);
}

fn connection_writer(inner: &Inner, conn_id: u64, mut sock: TcpStream, rx: Receiver<Response>) {
    while let Ok(resp) = rx.recv() {
        let value = resp.to_json();
        match gncg_json::frame::write_frame(&mut sock, &value, MAX_FRAME) {
            Ok(()) => {
                let _ = sock.flush();
                gncg_trace::incr(gncg_trace::Counter::ServeFramesTx);
            }
            Err(FrameError::TooLarge { len, max }) => {
                // an oversized *result* payload must not vanish silently
                if let Response::Result { req, .. } = resp {
                    let err = Response::Error {
                        req: Some(req),
                        code: ErrorCode::Protocol,
                        message: format!("result frame of {len} bytes exceeds cap {max}"),
                    };
                    let _ = gncg_json::frame::write_frame(&mut sock, &err.to_json(), MAX_FRAME);
                }
            }
            Err(_) => {
                // write failure/timeout: reap this connection; pending
                // results stay cached under their idempotency keys
                let _ = sock.shutdown(std::net::Shutdown::Both);
                let mut conns = inner.conns.lock().unwrap_or_else(|p| p.into_inner());
                conns.remove(&conn_id);
                return;
            }
        }
    }
}

fn connection_reader(inner: &Arc<Inner>, conn_id: u64, mut sock: TcpStream) {
    let mut fr = FrameReader::new(MAX_FRAME);
    let mut client: Option<String> = None;
    // connection-scoped request id → this connection's idem key for it
    let mut req_keys: HashMap<u64, (String, String)> = HashMap::new();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let request = match fr.read_frame(&mut sock) {
            Err(e) if e.is_timeout() => continue,
            // Closed, Truncated, TooLarge, hard Io: connection over
            Err(e) if !e.is_recoverable() => return,
            // garbage payload, boundary intact: typed error, carry on
            Err(e) => Err(e.to_string()),
            Ok(value) => {
                gncg_trace::incr(gncg_trace::Counter::ServeFramesRx);
                Request::from_json(&value).map_err(|e| format!("unparseable request: {e}"))
            }
        };
        let request = match request {
            Ok(r) => r,
            Err(message) => {
                let code = ErrorCode::Protocol;
                inner.send_to_conn(
                    conn_id,
                    Response::Error {
                        req: None,
                        code,
                        message,
                    },
                );
                continue;
            }
        };
        match request {
            Request::Hello { client: id } => {
                client = Some(id);
                inner.send_to_conn(
                    conn_id,
                    Response::HelloOk {
                        server: "gncg-serve".to_string(),
                        quota: QUOTA,
                    },
                );
                if inner.draining.load(Ordering::SeqCst) {
                    inner.send_to_conn(conn_id, Response::Draining);
                }
            }
            Request::Ping { seq } => {
                inner.send_to_conn(conn_id, Response::Pong { seq });
            }
            Request::Cancel { req } => {
                if let Some(key) = req_keys.get(&req) {
                    let state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
                    if let Some(IdemEntry::InFlight { handle, .. }) = state.idem.get(key) {
                        handle.cancel();
                    }
                }
            }
            Request::Submit { req, idem, spec } => {
                let Some(client_id) = client.clone() else {
                    inner.reject(conn_id, req, ErrorCode::BadRequest, "submit before hello");
                    continue;
                };
                req_keys.insert(req, (client_id.clone(), idem.clone()));
                handle_submit(inner, conn_id, client_id, req, idem, spec);
            }
        }
    }
}

fn handle_submit(
    inner: &Arc<Inner>,
    conn_id: u64,
    client: String,
    req: u64,
    idem: String,
    spec: JobSpec,
) {
    let key = (client.clone(), idem);
    let mut state = inner.state.lock().unwrap_or_else(|p| p.into_inner());

    // 1. idempotency: replay or attach — the job body never runs twice
    if let Some(entry) = state.idem.get_mut(&key) {
        match entry {
            IdemEntry::Done(outcome) => {
                let outcome = outcome.clone();
                inner.count(|s| &mut s.replayed);
                drop(state);
                inner.send_to_conn(conn_id, Response::Result { req, outcome });
            }
            IdemEntry::InFlight { waiters, .. } => {
                waiters.push(Waiter { conn: conn_id, req });
                inner.count(|s| &mut s.replayed);
                drop(state);
                let event = EventKind::Accepted;
                inner.send_to_conn(conn_id, Response::Event { req, event });
            }
        }
        return;
    }

    // 2. drain gate
    if inner.draining.load(Ordering::SeqCst) {
        drop(state);
        inner.reject(conn_id, req, ErrorCode::Draining, "server is draining");
        return;
    }

    // 3. per-client quota, layered on the session's two-lane admission
    let outstanding = state.quotas.entry(client.clone()).or_insert(0);
    if *outstanding >= QUOTA {
        drop(state);
        inner.reject(conn_id, req, ErrorCode::Quota, "per-client quota exhausted");
        return;
    }
    *outstanding += 1;

    // 4. session admission; the state lock is held across the submit so
    // the done-callback (worker thread) cannot observe a missing entry
    let job_opts = match spec.budget_ms() {
        Some(ms) => JobOptions::with_budget(&Budget::with_limit(Duration::from_millis(ms))),
        None => JobOptions::default(),
    };
    let kind = spec.kind();
    let started_inner = Arc::clone(inner);
    let started_key = key.clone();
    let done_inner = Arc::clone(inner);
    let done_key = key.clone();
    let submitted = inner.session.submit_observed(
        kind,
        job_opts,
        move |ctx| {
            notify_started(&started_inner, &started_key);
            spec.execute(ctx.budget())
        },
        move |result: &Result<Value, JobError>| {
            deliver_result(&done_inner, &done_key, result);
        },
    );
    match submitted {
        Ok(handle) => {
            state.idem.insert(
                key,
                IdemEntry::InFlight {
                    handle,
                    waiters: vec![Waiter { conn: conn_id, req }],
                },
            );
            inner.count(|s| &mut s.accepted);
            gncg_trace::incr(gncg_trace::Counter::ServeEnqueued);
            drop(state);
            let event = EventKind::Accepted;
            inner.send_to_conn(conn_id, Response::Event { req, event });
        }
        Err(e) => {
            // roll the quota reservation back
            if let Some(outstanding) = state.quotas.get_mut(&client) {
                *outstanding = outstanding.saturating_sub(1);
            }
            drop(state);
            let code = match e {
                SubmitError::QueueFull { .. } => ErrorCode::QueueFull,
                SubmitError::ShuttingDown => ErrorCode::Draining,
            };
            inner.reject(conn_id, req, code, &e.to_string());
        }
    }
}

/// Stream a `started` event to every waiter currently attached to the
/// job (runs on the worker thread, at the top of the job body).
fn notify_started(inner: &Inner, key: &(String, String)) {
    let waiters = match inner
        .state
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .idem
        .get(key)
    {
        Some(IdemEntry::InFlight { waiters, .. }) => waiters.clone(),
        _ => Vec::new(),
    };
    for Waiter { conn, req } in waiters {
        let event = EventKind::Started;
        inner.send_to_conn(conn, Response::Event { req, event });
    }
}

/// The done-callback: cache the outcome under the idempotency key,
/// release the quota slot, and deliver one `result` frame per waiter.
/// Runs exactly once per accepted job (the [`Session::submit_observed`]
/// contract), so the accounting invariant holds by construction.
fn deliver_result(inner: &Inner, key: &(String, String), result: &Result<Value, JobError>) {
    let outcome: Result<Value, RemoteError> = match result {
        Ok(v) => Ok(v.clone()),
        Err(JobError::Cancelled) => Err(RemoteError::Cancelled),
        Err(JobError::Panicked(m)) => Err(RemoteError::Panicked(m.clone())),
    };
    match &outcome {
        Ok(_) => inner.count(|s| &mut s.completed),
        Err(RemoteError::Cancelled) => inner.count(|s| &mut s.cancelled),
        Err(RemoteError::Panicked(_)) => inner.count(|s| &mut s.panicked),
    }
    let prev = {
        let mut state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(outstanding) = state.quotas.get_mut(&key.0) {
            *outstanding = outstanding.saturating_sub(1);
        }
        state
            .idem
            .insert(key.clone(), IdemEntry::Done(outcome.clone()))
    };
    if let Some(IdemEntry::InFlight { waiters, .. }) = prev {
        for Waiter { conn, req } in waiters {
            let outcome = outcome.clone();
            inner.send_to_conn(conn, Response::Result { req, outcome });
        }
    }
}
