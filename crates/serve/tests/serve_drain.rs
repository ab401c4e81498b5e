//! Real-SIGTERM drain semantics, isolated in its own test binary (and
//! hence its own process): the kernel-delivered signal must not be able
//! to perturb unrelated tests.
//!
//! Phase 1 — one SIGTERM mid-soak: the server stops accepting, finishes
//! every in-flight job, and the books balance — each accepted job is
//! completed, cancelled, or panicked, **never silently dropped**.
//! Phase 2 — a second SIGTERM: escalation to cancel; queued jobs
//! resolve `cancelled` without running.
//!
//! The two phases run inside a single `#[test]` because the SIGTERM
//! counter is process-global: sequencing keeps each server's
//! relative-count window unambiguous.

use gncg_config::{ModelKind, ServeConfig};
use gncg_game::OwnedNetwork;
use gncg_geometry::generators;
use gncg_serve::{signal, ClientError, JobSpec, ServeClient, Server};
use gncg_service::Session;
use std::time::Duration;

fn small_spec(i: usize) -> JobSpec {
    let n = 8 + (i % 4) * 2;
    JobSpec::Certify {
        points: generators::uniform_unit_square(n, i as u64),
        network: OwnedNetwork::center_star(n, 0),
        alpha: 1.25,
        exact: false,
        model: ModelKind::SumDistances,
        budget_ms: None,
    }
}

#[test]
fn sigterm_drains_without_losing_any_accepted_job_and_escalates_on_second() {
    assert!(signal::install_sigterm_handler(), "handler install failed");

    // ---------------- phase 1: graceful drain under load ----------------
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
    };
    let server = Server::bind(Session::builder().threads(4).build(), &cfg).expect("bind");
    let addr = server.local_addr().to_string();

    let (ok_jobs, terminal_rejections) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..24)
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = ServeClient::new(addr, format!("drain-{c}"))
                        .with_timeout(Duration::from_secs(10));
                    let mut ok = 0u64;
                    let mut rejected = 0u64;
                    // submit until the drain turns us away (bounded as a
                    // safety net; each attempt is also deadline-bounded)
                    for j in 0..5_000 {
                        match client.submit(&small_spec(c * 5_000 + j)) {
                            Ok(_) => ok += 1,
                            // drain landed: the server said so, stop
                            Err(ClientError::Rejected { .. }) => {
                                rejected += 1;
                                break;
                            }
                            // connect refused / deadline after drain
                            Err(ClientError::Deadline) | Err(ClientError::Transport(_)) => break,
                            Err(e) => panic!("unexpected client error: {e}"),
                        }
                    }
                    (ok, rejected)
                })
            })
            .collect();
        // let submissions flow, then pull the plug via the real kernel path
        std::thread::sleep(Duration::from_millis(300));
        let before = signal::term_count();
        assert!(signal::raise_sigterm(), "kill(getpid(), SIGTERM) failed");
        while signal::term_count() == before {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut ok_total = 0u64;
        let mut rej_total = 0u64;
        for h in handles {
            let (ok, rej) = h.join().expect("client thread");
            ok_total += ok;
            rej_total += rej;
        }
        (ok_total, rej_total)
    });

    assert!(
        server.wait_drained(Duration::from_secs(60)),
        "drain did not quiesce"
    );
    let stats = server.shutdown();
    assert!(stats.accepted > 0, "soak produced no load: {stats:?}");
    assert_eq!(
        stats.accepted,
        stats.completed + stats.cancelled + stats.panicked,
        "an accepted job was silently dropped: {stats:?}"
    );
    assert_eq!(stats.panicked, 0, "{stats:?}");
    // every client-observed success is an accepted job the server kept
    // its promise on (replays can make accepted < ok only never >)
    assert!(
        stats.completed >= ok_jobs,
        "clients saw {ok_jobs} results but the server completed {}",
        stats.completed
    );
    assert!(
        terminal_rejections > 0 || stats.rejected == 0,
        "drain rejections happened but no client observed one"
    );

    // ------------- phase 2: second SIGTERM escalates to cancel -------------
    let server = Server::bind(Session::builder().threads(1).build(), &cfg).expect("rebind");
    let addr = server.local_addr().to_string();
    // park the single worker so wire jobs stay queued; the worker
    // prefers the victim's interactive lane over the gate's batch lane,
    // so the victim is submitted only once the gate runs
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
    let victim = std::thread::spawn(move || {
        let mut client = ServeClient::new(addr, "victim").with_timeout(Duration::from_secs(60));
        client.submit(&small_spec(0))
    });
    // wait until the victim's job is actually accepted
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().accepted == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "victim never accepted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // first SIGTERM: drain. second: cancel. sequenced so the kernel
    // cannot coalesce the two deliveries
    let before = signal::term_count();
    assert!(signal::raise_sigterm());
    while signal::term_count() == before {
        std::thread::sleep(Duration::from_millis(1));
    }
    while !server.is_draining() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = signal::term_count();
    assert!(signal::raise_sigterm());
    while signal::term_count() == before {
        std::thread::sleep(Duration::from_millis(1));
    }
    // wait for the monitor to act on the escalation: once the server
    // reports cancelling, the victim's budget is tripped
    while !server.is_cancelling() {
        std::thread::sleep(Duration::from_millis(1));
    }
    // release the worker: the queued victim's tripped budget resolves
    // it Cancelled without the job body ever running
    gate_tx.send(()).expect("release gate");
    gate.wait().expect("gate job");
    match victim.join().expect("victim thread") {
        Err(ClientError::Cancelled) => {}
        other => panic!("expected Cancelled after escalation, got {other:?}"),
    }
    assert!(server.wait_drained(Duration::from_secs(30)));
    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(
        stats.accepted,
        stats.completed + stats.cancelled + stats.panicked,
        "{stats:?}"
    );
}
