//! `ServeClient`: the retrying, deadline-aware library client.
//!
//! One logical [`ServeClient::submit`] survives an unreliable
//! transport: every attempt reuses the same idempotency key, so the
//! server executes the job body **at most once** no matter how many
//! times the frame is resent — a resubmission either attaches to the
//! in-flight job or replays the cached result, byte-identically.
//!
//! Failure handling, per attempt:
//! - transport faults (connect refused, mid-stream close, injected
//!   [`crate::netfault`] faults) → reconnect and resubmit the same key,
//!   after jittered exponential backoff;
//! - `queue_full` / `quota` rejections → back off and resubmit (the
//!   backpressure is transient);
//! - `draining` / `bad_request` / `protocol` rejections → terminal;
//! - a result frame → terminal, mapped to `Ok` /
//!   [`ClientError::Cancelled`] / [`ClientError::Panicked`].
//!
//! Everything races one wall-clock deadline (`TIMEOUT`, 30 s, or
//! [`ServeClient::with_timeout`]); when it expires the call returns
//! [`ClientError::Deadline`]. After `RETRIES` (16) faulted attempts the
//! client engages [`crate::netfault::suppress`] for its own traffic so that a
//! high injected fault rate cannot livelock a soak run — the progress
//! guarantee the soak harness relies on.

use crate::netfault::{self, NetFault};
use crate::proto::{ErrorCode, JobSpec, RemoteError, Request, Response, MAX_FRAME};
use gncg_json::frame::{encode_frame, FrameError, FrameReader};
use gncg_json::{FromJson, ToJson, Value};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Default per-request deadline: connect, retries and the result wait
/// all share it.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Faulted attempts per request after which the client suppresses
/// injected network faults for its own traffic.
const RETRIES: u32 = 16;

/// Terminal outcome of a [`ServeClient::submit`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The remote job resolved `cancelled` (budget exhausted or server
    /// escalated to cancel). Binaries map this to
    /// [`gncg_config::INTERRUPTED_EXIT`].
    Cancelled,
    /// The remote job body panicked (isolated server-side).
    Panicked(String),
    /// The per-request deadline expired before a result arrived.
    Deadline,
    /// The server rejected the request terminally (draining, bad
    /// request, protocol violation).
    Rejected {
        /// The typed rejection code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The transport failed and the deadline left no room to retry.
    Transport(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Cancelled => write!(f, "job cancelled"),
            ClientError::Panicked(m) => write!(f, "job panicked: {m}"),
            ClientError::Deadline => write!(f, "request deadline exceeded"),
            ClientError::Rejected { code, message } => {
                write!(f, "rejected ({}): {message}", code.as_str())
            }
            ClientError::Transport(m) => write!(f, "transport: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

struct Conn {
    sock: TcpStream,
    reader: FrameReader,
}

/// A sequential client for one `gncg serve` endpoint. Not `Sync`; soak
/// tests run one client per thread, which is also the intended library
/// usage.
pub struct ServeClient {
    addr: String,
    client_id: String,
    timeout: Duration,
    conn: Option<Conn>,
    next_req: u64,
    next_idem: u64,
    /// splitmix64 state for backoff jitter, seeded from the client id
    /// so two clients never share a backoff schedule.
    jitter: u64,
}

impl ServeClient {
    /// A client for `addr`, identified to the server as `client_id`
    /// (the quota + idempotency tenant), with the `TIMEOUT` deadline.
    pub fn new(addr: impl Into<String>, client_id: impl Into<String>) -> Self {
        let client_id = client_id.into();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for b in client_id.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        Self {
            addr: addr.into(),
            client_id,
            timeout: TIMEOUT,
            conn: None,
            next_req: 0,
            next_idem: 0,
            jitter: seed,
        }
    }

    /// Override the per-request deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Submit under a fresh idempotency key.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Value, ClientError> {
        let key = format!("{}#{}", self.client_id, self.next_idem);
        self.next_idem += 1;
        self.submit_with_key(spec, &key)
    }

    /// Submit under an explicit idempotency key. Re-invoking with a key
    /// the server has already resolved replays the cached result
    /// byte-identically without re-executing — this is the resume path
    /// for interrupted (`cancelled`, exit 75) runs.
    pub fn submit_with_key(&mut self, spec: &JobSpec, idem: &str) -> Result<Value, ClientError> {
        let deadline = Instant::now() + self.timeout;
        let mut faulted_attempts: u32 = 0;
        let mut attempt: u32 = 0;
        loop {
            if Instant::now() >= deadline {
                return Err(ClientError::Deadline);
            }
            // after `RETRIES` faulted attempts, suppress injected
            // faults for this thread: progress over chaos
            let _guard = (faulted_attempts >= RETRIES).then(netfault::suppress);
            if attempt > 0 {
                gncg_trace::incr(gncg_trace::Counter::ServeRetries);
                self.backoff(attempt, deadline);
            }
            attempt += 1;
            if self.ensure_conn(deadline).is_err() {
                faulted_attempts += 1;
                continue;
            }
            let req = self.next_req;
            self.next_req += 1;
            let request = Request::Submit {
                req,
                idem: idem.to_string(),
                spec: spec.clone(),
            };
            if self.send_faulted(&request).is_err() {
                self.conn = None;
                faulted_attempts += 1;
                continue;
            }
            // per-attempt wait grows with the attempt number; an
            // expired wait just resubmits the same key (attach/replay)
            let wait = attempt_wait(attempt, deadline);
            match self.await_result(req, wait) {
                Await::Outcome(Ok(v)) => return Ok(v),
                Await::Outcome(Err(RemoteError::Cancelled)) => return Err(ClientError::Cancelled),
                Await::Outcome(Err(RemoteError::Panicked(m))) => {
                    return Err(ClientError::Panicked(m))
                }
                Await::Terminal(e) => return Err(e),
                Await::Retry => continue,
                Await::Transport => {
                    self.conn = None;
                    faulted_attempts += 1;
                    continue;
                }
            }
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let deadline = Instant::now() + self.timeout;
        self.ensure_conn(deadline).map_err(ClientError::Transport)?;
        let seq = self.next_req;
        self.next_req += 1;
        let pong = |r: &Response| matches!(r, Response::Pong { seq: s } if *s == seq);
        match self.exchange(&Request::Ping { seq }, deadline, pong) {
            Ok(true) => Ok(()),
            Ok(false) => Err(ClientError::Deadline),
            Err(e) => Err(ClientError::Transport(e)),
        }
    }

    /// Drop the connection (next submit reconnects). Test hook for
    /// exercising the resume path explicitly.
    pub fn disconnect(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.sock.shutdown(std::net::Shutdown::Both);
        }
    }

    fn ensure_conn(&mut self, deadline: Instant) -> Result<(), String> {
        if self.conn.is_some() {
            return Ok(());
        }
        let sock = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        let _ = sock.set_nodelay(true);
        let _ = sock.set_read_timeout(Some(Duration::from_millis(25)));
        self.conn = Some(Conn {
            sock,
            reader: FrameReader::new(MAX_FRAME),
        });
        // handshake (fault-free: faults exercise the submit path)
        let hello = Request::Hello {
            client: self.client_id.clone(),
        };
        let hello_ok = |r: &Response| matches!(r, Response::HelloOk { .. });
        let err = match self.exchange(&hello, deadline, hello_ok) {
            Ok(true) => return Ok(()),
            Ok(false) => "deadline during handshake".to_string(),
            Err(e) => e,
        };
        self.conn = None;
        Err(err)
    }

    /// Send `request` without fault injection, then read frames until
    /// one satisfies `reply` (`Ok(true)`) or `deadline` passes
    /// (`Ok(false)`).
    fn exchange(
        &mut self,
        request: &Request,
        deadline: Instant,
        reply: impl Fn(&Response) -> bool,
    ) -> Result<bool, String> {
        let bytes = encode_frame(&request.to_json(), MAX_FRAME).map_err(|e| e.to_string())?;
        self.write_all(&bytes)?;
        while Instant::now() < deadline {
            match self.read_response() {
                Ok(r) if reply(&r) => return Ok(true),
                Err(e) if !e.is_timeout() => return Err(e.to_string()),
                _ => {}
            }
        }
        Ok(false)
    }

    /// Write one request frame through the configured network fault
    /// plan: `Drop` swallows the frame, `Delay` stalls then sends,
    /// `Split` flushes it in two pieces (exercising the server's
    /// stateful decoder), `Close` tears the socket down mid-exchange.
    /// A swallowed frame counts as sent: the per-attempt wait expires
    /// and the same key is resubmitted.
    fn send_faulted(&mut self, request: &Request) -> Result<(), String> {
        let bytes = encode_frame(&request.to_json(), MAX_FRAME).map_err(|e| e.to_string())?;
        match netfault::roll() {
            NetFault::None => self.write_all(&bytes),
            NetFault::Drop => Ok(()),
            NetFault::Delay => {
                std::thread::sleep(Duration::from_millis(2));
                self.write_all(&bytes)
            }
            NetFault::Split => {
                let (a, b) = bytes.split_at((bytes.len() / 2).max(1).min(bytes.len()));
                self.write_all(a).and_then(|()| {
                    std::thread::sleep(Duration::from_millis(1));
                    self.write_all(b)
                })
            }
            NetFault::Close => {
                self.disconnect();
                Err("closed by the fault plan".to_string())
            }
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), String> {
        let Some(conn) = self.conn.as_mut() else {
            return Err("not connected".to_string());
        };
        match conn.sock.write_all(bytes).and_then(|_| conn.sock.flush()) {
            Ok(()) => {
                gncg_trace::incr(gncg_trace::Counter::ServeFramesTx);
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn read_response(&mut self) -> Result<Response, FrameError> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(FrameError::Closed);
        };
        let value = conn.reader.read_frame(&mut conn.sock)?;
        gncg_trace::incr(gncg_trace::Counter::ServeFramesRx);
        Response::from_json(&value).map_err(FrameError::Json)
    }

    /// Poll frames until `req` resolves, the per-attempt wait expires
    /// (→ resubmit), or the transport dies.
    fn await_result(&mut self, req: u64, wait: Duration) -> Await {
        let until = Instant::now() + wait;
        loop {
            if Instant::now() >= until {
                return Await::Retry;
            }
            match self.read_response() {
                Ok(Response::Result { req: r, outcome }) if r == req => {
                    return Await::Outcome(outcome)
                }
                Ok(Response::Error {
                    req: Some(r),
                    code,
                    message,
                }) if r == req => {
                    return match code {
                        // transient backpressure: resubmit after backoff
                        ErrorCode::QueueFull | ErrorCode::Quota => Await::Retry,
                        ErrorCode::Draining | ErrorCode::BadRequest | ErrorCode::Protocol => {
                            Await::Terminal(ClientError::Rejected { code, message })
                        }
                    };
                }
                // events for this request, stale results/errors for a
                // previous attempt's req id, drain notices, pongs
                Ok(_) => continue,
                Err(e) if e.is_timeout() => continue,
                Err(e) if e.is_recoverable() => continue,
                Err(_) => return Await::Transport,
            }
        }
    }

    fn next_jitter(&mut self) -> f64 {
        self.jitter = self.jitter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Jittered exponential backoff: `10ms · 2^(attempt-1)`, capped at
    /// 200ms, scaled by a uniform factor in `[0.5, 1.5)`, clipped to
    /// the remaining deadline.
    fn backoff(&mut self, attempt: u32, deadline: Instant) {
        let base =
            Duration::from_millis(10 << (attempt - 1).min(5)).min(Duration::from_millis(200));
        let scaled = base.mul_f64(0.5 + self.next_jitter());
        let remaining = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(scaled.min(remaining));
    }
}

enum Await {
    Outcome(Result<Value, RemoteError>),
    Terminal(ClientError),
    Retry,
    Transport,
}

/// Per-attempt result wait: starts short so dropped frames retry
/// quickly, grows geometrically so long-running jobs are not hammered
/// with (harmless, but wasteful) attach/replay resubmissions.
fn attempt_wait(attempt: u32, deadline: Instant) -> Duration {
    let base = Duration::from_millis(250u64.saturating_mul(1 << attempt.min(6)));
    base.min(deadline.saturating_duration_since(Instant::now()))
}
