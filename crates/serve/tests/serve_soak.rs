//! The fault soak: ≥128 concurrent clients against one server while
//! **deterministic network faults** (`netfault`: drop / delay / split /
//! close at frame boundaries) and **compute faults**
//! (`gncg_parallel::fault`: injected worker panics, absorbed and
//! retried by the chunk runners) are both active. Every client must
//! still receive a result **bit-identical** to the direct solver call,
//! and the server's accounting must balance: each accepted job
//! completed — none lost, none duplicated.
//!
//! CI runs this under `GNCG_THREADS ∈ {1, 4}` and
//! `GNCG_FAULT_INJECT=0.02` / `GNCG_NET_FAULT_INJECT=0.15`; the test
//! also sets both probabilities programmatically so a bare `cargo test`
//! soaks identically.

use gncg_config::{ModelKind, ServeConfig};
use gncg_game::OwnedNetwork;
use gncg_geometry::generators;
use gncg_parallel::Budget;
use gncg_serve::{netfault, JobSpec, ServeClient, Server};
use gncg_service::cache::{set_process_cache_dir, ResultCache};
use gncg_service::Session;
use gncg_sweep::engine;
use gncg_sweep::spec::SweepSpec;
use std::time::Duration;

const CLIENTS: usize = 128;
const DISTINCT_SPECS: usize = 8;

fn spec(i: usize) -> JobSpec {
    let n = 10 + (i % DISTINCT_SPECS) * 2;
    let seed = 1000 + (i % DISTINCT_SPECS) as u64;
    JobSpec::Certify {
        points: generators::uniform_unit_square(n, seed),
        network: OwnedNetwork::center_star(n, 0),
        alpha: 1.0 + 0.25 * (i % DISTINCT_SPECS) as f64,
        exact: false,
        model: ModelKind::SumDistances,
        budget_ms: None,
    }
}

#[test]
fn soak_128_faulted_clients_are_bit_identical_to_direct_calls() {
    gncg_trace::set_enabled(true);
    // expected answers first, with every injector quiet
    netfault::set_probability(0.0);
    gncg_parallel::fault::set_injection_probability(0.0);
    let expected: Vec<String> = (0..DISTINCT_SPECS)
        .map(|i| gncg_json::to_string(&spec(i).execute(&Budget::default())))
        .collect();

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
    };
    // Session::new() honours GNCG_THREADS, which the CI matrix varies
    let server = Server::bind(Session::new(), &cfg).expect("bind soak server");
    let addr = server.local_addr().to_string();

    // now let chaos loose, deterministically
    netfault::reseed(0xC0FF_EE00_5EED);
    netfault::set_probability(0.15);
    gncg_parallel::fault::set_injection_probability(0.02);

    let results: Vec<(usize, Result<String, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addr.clone();
                s.spawn(move || {
                    let _trace = gncg_trace::worker_guard();
                    let mut client = ServeClient::new(addr, format!("soak-{i}"))
                        .with_timeout(Duration::from_secs(120));
                    let outcome = client
                        .submit(&spec(i))
                        .map(|v| gncg_json::to_string(&v))
                        .map_err(|e| e.to_string());
                    (i, outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    netfault::set_probability(0.0);
    gncg_parallel::fault::set_injection_probability(0.0);

    let mut failures = Vec::new();
    for (i, outcome) in &results {
        match outcome {
            Ok(got) if *got == expected[i % DISTINCT_SPECS] => {}
            Ok(_) => failures.push(format!("client {i}: result differs from direct call")),
            Err(e) => failures.push(format!("client {i}: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {CLIENTS} clients diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );

    let stats = server.shutdown();
    // at-most-once execution: every (client, key) pair was accepted
    // exactly once no matter how many times its frame was resent
    assert_eq!(stats.accepted, CLIENTS as u64, "stats: {stats:?}");
    assert_eq!(stats.completed, CLIENTS as u64, "stats: {stats:?}");
    assert_eq!(stats.cancelled, 0, "stats: {stats:?}");
    assert_eq!(stats.panicked, 0, "stats: {stats:?}");
    assert_eq!(
        stats.accepted,
        stats.completed + stats.cancelled + stats.panicked
    );
    // the fault plan actually exercised the wire
    let snap = gncg_trace::snapshot();
    assert!(
        snap.counters[gncg_trace::Counter::ServeFramesRx as usize] > 0
            && snap.counters[gncg_trace::Counter::ServeFramesTx as usize] > 0
            && snap.counters[gncg_trace::Counter::ServeEnqueued as usize] >= CLIENTS as u64,
        "soak moved no frames?"
    );

    shared_cache_leg();
}

/// The shared-cache leg: many faulted clients each submit their *own*
/// sweep (distinct ids, so checkpoints don't interleave) over one
/// server-side content-addressed cache. Every unit after the first
/// computation is a cache hit, yet every client's rows must stay
/// bit-identical to the direct engine run — and the cache must end the
/// chaos with zero tmp/quarantine debris. Runs as a phase of the soak
/// test because the injection probabilities and the cache-directory
/// override are process-global.
fn shared_cache_leg() {
    const SWEEPERS: usize = 16;
    let base = std::env::temp_dir().join(format!("gncg_soak_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::env::set_var("GNCG_RESULTS_DIR", base.join("results"));
    let cache_dir = base.join("cache");
    set_process_cache_dir(Some(cache_dir.clone()));

    let sweep_spec = |i: usize| -> SweepSpec {
        SweepSpec::parse(&format!(
            r#"{{"sweep": "soak_shared_{i}", "claim": "shared-cache soak", "version": 1,
                "instances": {{"generator": "uniform", "n": [5, 6], "seeds": [1]}},
                "network": {{"method": ["mst", "star"]}},
                "alphas": [1.25, 2.0],
                "job": {{"kind": "certify", "exact": true}}}}"#
        ))
        .expect("soak sweep spec parses")
    };

    // expected rows from the direct engine, injectors quiet
    netfault::set_probability(0.0);
    gncg_parallel::fault::set_injection_probability(0.0);
    let direct = engine::run_spec(&sweep_spec(0), None, None, &Budget::unlimited(), None);
    assert!(!direct.interrupted);
    let expected_rows = gncg_json::to_string(
        gncg_json::ToJson::to_json(&direct.report)
            .get("rows")
            .expect("report has rows"),
    );

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
    };
    let server = Server::bind(Session::new(), &cfg).expect("bind shared-cache server");
    let addr = server.local_addr().to_string();

    netfault::reseed(0x5EED_CAFE);
    netfault::set_probability(0.15);
    gncg_parallel::fault::set_injection_probability(0.02);

    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SWEEPERS)
            .map(|i| {
                let addr = addr.clone();
                let spec = sweep_spec(i);
                s.spawn(move || {
                    let mut client = ServeClient::new(addr, format!("sweeper-{i}"))
                        .with_timeout(Duration::from_secs(120));
                    let job = JobSpec::Sweep {
                        spec: Box::new(spec),
                        budget_ms: None,
                    };
                    client
                        .submit(&job)
                        .map_err(|e| format!("sweeper {i}: {e}"))
                        .and_then(|payload| {
                            let rows = payload
                                .get("report")
                                .and_then(|r| r.get("rows"))
                                .map(gncg_json::to_string)
                                .ok_or_else(|| format!("sweeper {i}: malformed payload"))?;
                            Ok((i, rows))
                        })
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join().expect("sweeper thread") {
                Ok((_, rows)) if rows == expected_rows => None,
                Ok((i, _)) => Some(format!("sweeper {i}: rows diverged from direct run")),
                Err(e) => Some(e),
            })
            .collect()
    });

    netfault::set_probability(0.0);
    gncg_parallel::fault::set_injection_probability(0.0);
    assert!(
        failures.is_empty(),
        "{} of {SWEEPERS} sweepers diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );

    let stats = server.shutdown();
    assert_eq!(stats.accepted, SWEEPERS as u64, "stats: {stats:?}");
    assert_eq!(stats.completed, SWEEPERS as u64, "stats: {stats:?}");

    // the chaos left a clean cache: entries only, no debris to collect
    let cache = ResultCache::at(&cache_dir).expect("reopen cache");
    assert!(
        cache.entry_count().unwrap() > 0,
        "soak populated no entries"
    );
    assert_eq!(
        cache.gc().unwrap(),
        0,
        "tmp/quarantine debris survived the soak"
    );

    set_process_cache_dir(None);
    std::env::remove_var("GNCG_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(&base);
}
