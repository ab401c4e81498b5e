//! Cache-aware certification is a pure transparency layer: warm-cache
//! results are bit-identical to cold-cache results and to direct solver
//! calls, across worker-thread counts and both cost models — and a
//! budgeted job never touches the cache at all.
//!
//! The surface is `Session::attach_result_cache` plus a
//! [`SolverConfig`] carrying a cache key.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gncg_config::ModelKind;
use gncg_game::certify::certify;
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_geometry::generators;
use gncg_json::{canon, object, ToJson, Value};
use gncg_parallel::Budget;
use gncg_service::cache::ResultCache;
use gncg_service::{JobOptions, Session};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gncg_cache_int_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The certify content key the sweep engine would build for this unit
/// (instance + full options), assembled by hand here so the service
/// test does not depend on gncg-sweep (which is downstream of us).
fn key_for(n: usize, seed: u64, alpha: f64, model: ModelKind) -> String {
    let desc = object(vec![
        ("generator", Value::String("uniform".into())),
        ("n", Value::Number(n as f64)),
        ("seed", Value::Number(seed as f64)),
    ]);
    let options = object(vec![
        ("alpha", Value::Number(alpha)),
        ("exact", Value::Bool(true)),
        ("model", Value::String(model.as_str().into())),
    ]);
    let spec = object(vec![
        ("instance", desc),
        ("op", Value::String("certify".into())),
        ("options", options),
    ]);
    canon::content_key(&spec)
}

#[test]
fn warm_equals_cold_equals_direct_across_threads_and_models() {
    let (n, seed, alpha) = (6usize, 42u64, 1.5f64);
    for model in [ModelKind::SumDistances, ModelKind::MaxDistance] {
        let key = key_for(n, seed, alpha, model);
        let cfg = SolverConfig::exact().with_model(model);

        let ps = generators::uniform_unit_square(n, seed);
        let net = OwnedNetwork::center_star(n, 0);
        let direct = certify(&ps, &net, alpha, &cfg);
        let direct_json = gncg_json::to_string(&direct.to_json());

        let dir = tmpdir(&format!("wcd_{model}"));
        for threads in [1usize, 4] {
            // Cold on the first thread count, warm on every later pass
            // over the same directory — all must match `direct`.
            let cache = Arc::new(ResultCache::at(&dir).unwrap());
            let session = Session::builder().threads(threads).build();
            session.attach_result_cache(Arc::clone(&cache));
            let ps = Arc::new(generators::uniform_unit_square(n, seed));
            let net = OwnedNetwork::center_star(n, 0);
            let report = session
                .submit_certify(
                    ps,
                    net,
                    alpha,
                    cfg.clone().with_cache_key(&key),
                    JobOptions::default(),
                )
                .expect("admitted")
                .wait()
                .expect("certify succeeded");
            assert_eq!(
                gncg_json::to_string(&report.to_json()),
                direct_json,
                "threads={threads} model={model}: cached path diverged from direct"
            );
            // The entry is installed after the cold pass, so the second
            // thread count exercises the warm path.
            assert!(cache.get(&key).is_some());
        }
    }
}

#[test]
fn warm_hit_resolves_without_queueing() {
    let (n, seed, alpha) = (5usize, 7u64, 2.0f64);
    let model = ModelKind::SumDistances;
    let key = key_for(n, seed, alpha, model);
    let dir = tmpdir("resolved");
    let cache = Arc::new(ResultCache::at(&dir).unwrap());
    let session = Session::builder().threads(1).build();
    session.attach_result_cache(Arc::clone(&cache));
    let submit = |job: JobOptions| {
        session
            .submit_certify(
                Arc::new(generators::uniform_unit_square(n, seed)),
                OwnedNetwork::center_star(n, 0),
                alpha,
                SolverConfig::exact().with_model(model).with_cache_key(&key),
                job,
            )
            .expect("admitted")
    };
    let cold = submit(JobOptions::default()).wait().expect("cold certify");

    // A warm submit's handle is born resolved: done before any wait.
    let warm_handle = submit(JobOptions::default());
    assert!(warm_handle.is_done(), "warm hit must not enter the queue");
    let warm = warm_handle.wait().expect("warm certify");
    assert_eq!(
        gncg_json::to_string(&warm.to_json()),
        gncg_json::to_string(&cold.to_json())
    );
}

#[test]
fn keyed_submit_without_attached_cache_runs_uncached() {
    let (n, seed, alpha) = (5usize, 11u64, 1.5f64);
    let key = key_for(n, seed, alpha, ModelKind::SumDistances);
    // No attach_result_cache: the keyed policy silently degrades to an
    // uncached run, bit-identical to the direct call.
    let session = Session::builder().threads(1).build();
    let report = session
        .submit_certify(
            Arc::new(generators::uniform_unit_square(n, seed)),
            OwnedNetwork::center_star(n, 0),
            alpha,
            SolverConfig::exact().with_cache_key(&key),
            JobOptions::default(),
        )
        .expect("admitted")
        .wait()
        .expect("certify succeeded");
    let ps = generators::uniform_unit_square(n, seed);
    let net = OwnedNetwork::center_star(n, 0);
    let direct = certify(&ps, &net, alpha, &SolverConfig::exact());
    assert_eq!(
        gncg_json::to_string(&report.to_json()),
        gncg_json::to_string(&direct.to_json())
    );
}

#[test]
fn budgeted_jobs_bypass_the_cache_entirely() {
    let (n, seed, alpha) = (5usize, 3u64, 1.5f64);
    let key = key_for(n, seed, alpha, ModelKind::SumDistances);
    let dir = tmpdir("budget");
    let cache = Arc::new(ResultCache::at(&dir).unwrap());
    let session = Session::builder().threads(1).build();
    session.attach_result_cache(Arc::clone(&cache));

    // A generous budget (nothing degrades at this size) — but *any*
    // limited budget makes the result ineligible for the cache.
    let job = JobOptions::with_budget(&Budget::with_limit(std::time::Duration::from_secs(60)));
    session
        .submit_certify(
            Arc::new(generators::uniform_unit_square(n, seed)),
            OwnedNetwork::center_star(n, 0),
            alpha,
            SolverConfig::exact().with_cache_key(&key),
            job,
        )
        .expect("admitted")
        .wait()
        .expect("certify succeeded");
    assert!(
        cache.get(&key).is_none(),
        "budgeted result must not be cached (no put)"
    );
    assert_eq!(cache.entry_count().unwrap(), 0);
}
