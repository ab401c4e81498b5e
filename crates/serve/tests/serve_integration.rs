//! End-to-end protocol tests against a live loopback server: typed
//! protocol errors for hostile frames, per-client quotas, cancellation,
//! idempotent replay, budget-exhaustion ↔ exit-75 mapping, drain
//! semantics, and panic isolation — all with no fault injection (the
//! fault soak lives in `serve_soak.rs`).

use gncg_config::{ModelKind, ServeConfig};
use gncg_game::OwnedNetwork;
use gncg_geometry::generators;
use gncg_json::frame::{write_frame, FrameReader};
use gncg_json::{FromJson, ToJson};
use gncg_parallel::Budget;
use gncg_serve::proto::MAX_FRAME;
use gncg_serve::{
    ClientError, ErrorCode, JobSpec, RemoteError, Request, Response, ServeClient, Server,
};
use gncg_service::Session;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
    }
}

fn start_server(cfg: &ServeConfig) -> Server {
    Server::bind(Session::builder().threads(4).build(), cfg).expect("bind loopback")
}

fn certify_spec(n: usize, seed: u64, budget_ms: Option<u64>) -> JobSpec {
    let points = generators::uniform_unit_square(n, seed);
    let network = OwnedNetwork::center_star(n, 0);
    JobSpec::Certify {
        points,
        network,
        alpha: 1.5,
        exact: false,
        model: ModelKind::SumDistances,
        budget_ms,
    }
}

fn direct(spec: &JobSpec) -> String {
    gncg_json::to_string(&spec.clone().execute(&Budget::default()))
}

/// Raw-socket helper speaking the frame protocol directly (for the
/// adversarial tests a well-behaved `ServeClient` cannot express).
struct RawConn {
    sock: TcpStream,
    reader: FrameReader,
}

impl RawConn {
    fn connect(server: &Server) -> Self {
        let sock = TcpStream::connect(server.local_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        Self {
            sock,
            reader: FrameReader::new(MAX_FRAME),
        }
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.sock, &req.to_json(), MAX_FRAME).expect("send frame");
    }

    fn recv(&mut self, within: Duration) -> Response {
        let deadline = Instant::now() + within;
        loop {
            match self.reader.read_frame(&mut self.sock) {
                Ok(v) => return Response::from_json(&v).expect("parse response"),
                Err(e) if e.is_timeout() => {
                    assert!(Instant::now() < deadline, "no frame within {within:?}");
                }
                Err(e) => panic!("transport error while waiting for frame: {e}"),
            }
        }
    }

    /// Say hello as `client`; returns the per-client quota the server
    /// reports.
    fn hello(&mut self, client: &str) -> usize {
        self.send(&Request::Hello {
            client: client.to_string(),
        });
        match self.recv(Duration::from_secs(5)) {
            Response::HelloOk { quota, .. } => quota,
            other => panic!("expected hello_ok, got {other:?}"),
        }
    }

    /// Wait for the final result of `req`, skipping events.
    fn result_of(&mut self, req: u64, within: Duration) -> Result<gncg_json::Value, RemoteError> {
        let deadline = Instant::now() + within;
        loop {
            assert!(Instant::now() < deadline, "no result for req {req}");
            match self.recv(deadline.saturating_duration_since(Instant::now())) {
                Response::Result { req: r, outcome } if r == req => return outcome,
                _ => continue,
            }
        }
    }
}

#[test]
fn certify_round_trip_is_bit_identical_to_direct_call() {
    let server = start_server(&test_config());
    let spec = certify_spec(24, 7, None);
    let expected = direct(&spec);
    let mut client = ServeClient::new(server.local_addr().to_string(), "rt-certify");
    let got = client.submit(&spec).expect("remote certify");
    assert_eq!(gncg_json::to_string(&got), expected);
    // and the payload parses back into a structurally equal report
    let report = gncg_game::certify::CertifyReport::from_json(&got).expect("parse report");
    let direct_report = match spec {
        JobSpec::Certify {
            ref points,
            ref network,
            alpha,
            ..
        } => gncg_game::certify::certify(
            points,
            network,
            alpha,
            &gncg_game::SolverConfig::default().with_model(ModelKind::SumDistances),
        ),
        _ => unreachable!(),
    };
    assert_eq!(report, direct_report);
    server.shutdown();
}

#[test]
fn dynamics_round_trip_matches_direct() {
    let server = start_server(&test_config());
    let points = generators::uniform_unit_square(12, 3);
    let spec = JobSpec::Dynamics {
        points,
        alpha: 1.0,
        rule: gncg_game::dynamics::ResponseRule::BestSingleMove,
        steps: 200,
        spec: gncg_game::GameSpec::with_model(ModelKind::SumDistances),
        start: None,
        budget_ms: None,
    };
    let expected = direct(&spec);
    let mut client = ServeClient::new(server.local_addr().to_string(), "rt-dynamics");
    let got = client.submit(&spec).expect("remote dynamics");
    assert_eq!(gncg_json::to_string(&got), expected);
    server.shutdown();
}

#[test]
fn malformed_payload_yields_typed_error_and_connection_survives() {
    let server = start_server(&test_config());
    let mut conn = RawConn::connect(&server);
    conn.hello("adversary");
    // a frame with a correct prefix but garbage payload
    let garbage = b"not json at all {{{";
    let mut framed = (garbage.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(garbage);
    conn.sock.write_all(&framed).unwrap();
    match conn.recv(Duration::from_secs(5)) {
        Response::Error { req, code, .. } => {
            assert_eq!(req, None);
            assert_eq!(code, ErrorCode::Protocol);
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // the stream boundary was preserved: the connection still works
    conn.send(&Request::Ping { seq: 42 });
    match conn.recv(Duration::from_secs(5)) {
        Response::Pong { seq } => assert_eq!(seq, 42),
        other => panic!("expected pong after recovery, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversized_length_prefix_closes_the_connection() {
    let server = start_server(&test_config());
    let mut conn = RawConn::connect(&server);
    conn.hello("hostile");
    // a length prefix beyond the cap: the boundary is unrecoverable, so
    // the server must drop the connection (and must not allocate)
    conn.sock.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match conn.reader.read_frame(&mut conn.sock) {
            Err(e) if e.is_timeout() => {
                assert!(
                    Instant::now() < deadline,
                    "server never closed the connection"
                );
            }
            Err(_) => break, // closed/reset: exactly what we want
            Ok(v) => panic!("unexpected frame after hostile prefix: {v:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn submit_before_hello_is_bad_request() {
    let server = start_server(&test_config());
    let mut conn = RawConn::connect(&server);
    conn.send(&Request::Submit {
        req: 1,
        idem: "k".to_string(),
        spec: certify_spec(8, 1, None),
    });
    match conn.recv(Duration::from_secs(5)) {
        Response::Error { req, code, .. } => {
            assert_eq!(req, Some(1));
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn exhausted_budget_reports_cancelled_and_resume_is_byte_identical() {
    let server = start_server(&test_config());
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::new(addr, "resumer");
    // budget_ms = 0: the budget is exhausted before the job body runs,
    // the remote analogue of an interrupted sweep
    let interrupted = certify_spec(20, 11, Some(0));
    match client.submit_with_key(&interrupted, "attempt-1") {
        Err(ClientError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // the CLI maps this to the same exit code local interruption uses
    assert_eq!(gncg_config::INTERRUPTED_EXIT, 75);
    // "resume": re-drive the same work without the exhausted budget and
    // require the result of an uninterrupted direct run, byte for byte
    let resumed = certify_spec(20, 11, None);
    let got = client
        .submit_with_key(&resumed, "attempt-2")
        .expect("resumed run");
    assert_eq!(gncg_json::to_string(&got), direct(&resumed));
    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.cancelled + stats.panicked
    );
}

#[test]
fn idempotent_resubmission_executes_once_and_replays_cached() {
    let server = start_server(&test_config());
    let addr = server.local_addr().to_string();
    let spec = certify_spec(18, 5, None);
    let mut client = ServeClient::new(addr, "idem");
    let first = client.submit_with_key(&spec, "the-key").expect("first");
    // sever the transport; the resubmission must replay, not re-execute
    client.disconnect();
    let second = client.submit_with_key(&spec, "the-key").expect("replay");
    assert_eq!(gncg_json::to_string(&first), gncg_json::to_string(&second));
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "the job body must run at most once");
    assert!(stats.replayed >= 1, "second submit should hit the cache");
}

#[test]
fn quota_rejects_while_full_and_recovers_after_release() {
    // single worker + a gate job parked on it: the wire-submitted jobs
    // below stay *queued* for as long as the test wants, so the quota
    // window is deterministic, not timing-dependent. The gate runs in
    // the batch lane and the hogs in the interactive one, which the
    // worker prefers, so the hogs are submitted only once the gate runs.
    let server = Server::bind(Session::builder().threads(1).build(), &test_config()).expect("bind");
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let gate = server
        .session()
        .submit_sweep(gncg_service::JobOptions::default(), move |_| {
            let _ = started_tx.send(());
            let _ = gate_rx.recv();
        })
        .expect("gate job");
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("gate job started");
    let mut conn = RawConn::connect(&server);
    let quota = conn.hello("tenant") as u64;
    assert!(quota >= 1, "hello_ok reports a quota of {quota}");
    // occupy every quota slot; the jobs queue behind the gate
    for req in 1..=quota {
        conn.send(&Request::Submit {
            req,
            idem: format!("slow-{req}"),
            spec: certify_spec(16, 99, None),
        });
        match conn.recv(Duration::from_secs(5)) {
            Response::Event { req: r, .. } if r == req => {}
            other => panic!("expected accepted event for req {req}, got {other:?}"),
        }
    }
    // one more submission from the same tenant is over quota
    let over = quota + 1;
    conn.send(&Request::Submit {
        req: over,
        idem: "over".to_string(),
        spec: certify_spec(8, 2, None),
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match conn.recv(deadline.saturating_duration_since(Instant::now())) {
            Response::Error { req, code, .. } => {
                assert_eq!(req, Some(over));
                assert_eq!(code, ErrorCode::Quota);
                break;
            }
            Response::Event { .. } => continue,
            other => panic!("expected quota rejection, got {other:?}"),
        }
    }
    // cancel the queued hogs, then release the worker: each hog
    // resolves Cancelled without ever running, and its slot comes back
    for req in 1..=quota {
        conn.send(&Request::Cancel { req });
    }
    // the reader handles frames in order: a pong proves the cancels
    // were processed before we let the worker go
    conn.send(&Request::Ping { seq: 7 });
    loop {
        match conn.recv(Duration::from_secs(5)) {
            Response::Pong { seq: 7 } => break,
            Response::Result { req, outcome } => {
                panic!("req {req} resolved while the worker was parked: {outcome:?}")
            }
            _ => continue,
        }
    }
    gate_tx.send(()).expect("release gate");
    gate.wait().expect("gate job");
    let mut cancelled = std::collections::BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while (cancelled.len() as u64) < quota {
        match conn.recv(deadline.saturating_duration_since(Instant::now())) {
            Response::Result {
                req,
                outcome: Err(RemoteError::Cancelled),
            } if (1..=quota).contains(&req) => {
                assert!(cancelled.insert(req), "req {req} resolved twice");
            }
            Response::Result { req, outcome } => {
                panic!("expected req {req} cancelled, got {outcome:?}")
            }
            _ => continue,
        }
    }
    let after = quota + 2;
    conn.send(&Request::Submit {
        req: after,
        idem: "after".to_string(),
        spec: certify_spec(8, 2, None),
    });
    assert!(
        conn.result_of(after, Duration::from_secs(30)).is_ok(),
        "slots should be free after the cancelled jobs resolved"
    );
    let stats = server.shutdown();
    assert!(stats.rejected >= 1);
    assert_eq!(stats.cancelled, quota);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.cancelled + stats.panicked
    );
}

#[test]
fn draining_notifies_connections_and_rejects_new_work() {
    let server = start_server(&test_config());
    let mut conn = RawConn::connect(&server);
    conn.hello("drainee");
    server.begin_drain();
    // the drain notice is broadcast to connected clients
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match conn.recv(deadline.saturating_duration_since(Instant::now())) {
            Response::Draining => break,
            _ => continue,
        }
    }
    conn.send(&Request::Submit {
        req: 9,
        idem: "late".to_string(),
        spec: certify_spec(8, 4, None),
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match conn.recv(deadline.saturating_duration_since(Instant::now())) {
            Response::Error { req, code, .. } => {
                assert_eq!(req, Some(9));
                assert_eq!(code, ErrorCode::Draining);
                break;
            }
            _ => continue,
        }
    }
    let stats = server.shutdown();
    assert!(stats.rejected >= 1);
    server_invariant(stats);
}

#[test]
fn job_panic_is_isolated_and_reported() {
    let server = start_server(&test_config());
    let addr = server.local_addr().to_string();
    // 6 points but a 4-node star: the job body panics on the mismatch;
    // the panic must be contained to that job, not the server
    let poisoned = JobSpec::Certify {
        points: generators::uniform_unit_square(6, 8),
        network: OwnedNetwork::center_star(4, 0),
        alpha: 1.5,
        exact: false,
        model: ModelKind::SumDistances,
        budget_ms: None,
    };
    let mut client = ServeClient::new(addr, "panicky");
    match client.submit(&poisoned) {
        Err(ClientError::Panicked(_)) => {}
        other => panic!("expected Panicked, got {other:?}"),
    }
    // the server is still fully alive for the next job
    let healthy = certify_spec(10, 9, None);
    let got = client.submit(&healthy).expect("post-panic job");
    assert_eq!(gncg_json::to_string(&got), direct(&healthy));
    let stats = server.shutdown();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 1);
    server_invariant(stats);
}

fn server_invariant(stats: gncg_serve::ServerStats) {
    assert_eq!(
        stats.accepted,
        stats.completed + stats.cancelled + stats.panicked,
        "an accepted job vanished: {stats:?}"
    );
}
