//! The sweep engine's cache discipline, seen from outside: a budgeted
//! spec never touches the cache, and a network entry of an older shape
//! is a miss that the next run overwrites.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gncg_game::certify::certify;
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_json::{canon, object, ToJson, Value};
use gncg_parallel::Budget;
use gncg_service::cache::ResultCache;
use gncg_service::Session;
use gncg_sweep::engine::{build_network, generate_points, run_spec};
use gncg_sweep::spec::{certify_key, network_key, SweepSpec};

/// A one-unit exact spec; `job_extra` is spliced into its `job` object.
fn spec(id: &str, job_extra: &str) -> SweepSpec {
    SweepSpec::parse(&format!(
        r#"{{"sweep": "{id}", "claim": "cache discipline", "version": 1,
            "instances": {{"generator": "uniform", "n": [6], "seeds": [3]}},
            "network": {{"method": "combined"}},
            "alphas": [1.5],
            "job": {{"kind": "certify", "exact": true{job_extra}}}}}"#
    ))
    .expect("test spec parses")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gncg_sweep_cache_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn bytes(report: &gncg_sweep::Report) -> String {
    gncg_json::to_string_pretty(&report.to_json())
}

fn direct(spec: &SweepSpec, tag: &str) -> String {
    let run = run_spec(
        spec,
        None,
        None,
        &Budget::unlimited(),
        Some(scratch(tag).join("ckpt.json")),
    );
    assert!(!run.interrupted);
    bytes(&run.report)
}

#[test]
fn a_budgeted_spec_neither_reads_nor_writes_the_cache() {
    let spec = spec("cache_budgeted", r#", "budget_ms": 600000"#);
    let unit = &spec.units()[0];
    let expected = direct(&spec, "budget_direct");

    // Valid but foreign payloads under the unit's own keys: a read
    // would show in the report, a write would replace them.
    let ps = generate_points(&spec.generator, unit.n, unit.seed);
    let star = OwnedNetwork::center_star(ps.len(), 0);
    let network_entry = object(vec![
        ("network", star.to_json()),
        ("diameter", Value::Number(99.0)),
    ]);
    let certify_entry = certify(&ps, &star, 9.0, &SolverConfig::exact()).to_json();
    let nkey = network_key(&spec.generator, unit.n, unit.seed, &unit.method, unit.alpha);
    let ckey = certify_key(
        &spec.generator,
        unit.n,
        unit.seed,
        &unit.method,
        unit.alpha,
        spec.exact,
        spec.model,
        "exact",
        spec.budget_ms,
    );
    let dir = scratch("budget_cache");
    let cache = Arc::new(ResultCache::at(&dir).unwrap());
    cache.put(&nkey, &network_entry).unwrap();
    cache.put(&ckey, &certify_entry).unwrap();

    let session = Session::builder().threads(1).build();
    for (regime, session) in [("inline", None), ("session", Some(&session))] {
        let run = run_spec(
            &spec,
            Some(Arc::clone(&cache)),
            session,
            &Budget::unlimited(),
            Some(scratch(&format!("budget_{regime}")).join("ckpt.json")),
        );
        assert!(!run.interrupted, "{regime}");
        assert_eq!(bytes(&run.report), expected, "{regime}: read the cache");
        assert_eq!(cache.entry_count().unwrap(), 2, "{regime}: wrote an entry");
        for (key, planted) in [(&nkey, &network_entry), (&ckey, &certify_entry)] {
            assert_eq!(
                cache.get(key).map(|v| gncg_json::to_string(&v)),
                Some(gncg_json::to_string(&canon::canonicalize(planted))),
                "{regime}: overwrote a planted entry"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_old_matrix_network_entry_is_a_miss_and_is_overwritten() {
    let spec = spec("cache_old_entry", "");
    let unit = &spec.units()[0];
    let expected = direct(&spec, "old_direct");

    // The shape network entries had while they carried the whole
    // distance matrix as bit-pattern hex.
    let ps = generate_points(&spec.generator, unit.n, unit.seed);
    let net = build_network(&unit.method, &ps, unit.alpha);
    let old = object(vec![
        ("network", net.to_json()),
        (
            "matrix",
            object(vec![
                ("n", Value::Number(ps.len() as f64)),
                ("bits", Value::String("0".repeat(16 * ps.len() * ps.len()))),
            ]),
        ),
    ]);
    let nkey = network_key(&spec.generator, unit.n, unit.seed, &unit.method, unit.alpha);
    let dir = scratch("old_cache");
    let cache = Arc::new(ResultCache::at(&dir).unwrap());
    cache.put(&nkey, &old).unwrap();

    for regime in ["over the old entry", "warm"] {
        let run = run_spec(
            &spec,
            Some(Arc::clone(&cache)),
            None,
            &Budget::unlimited(),
            Some(scratch("old_run").join("ckpt.json")),
        );
        assert!(!run.interrupted, "{regime}");
        assert_eq!(bytes(&run.report), expected, "{regime}");
    }
    let entry = cache.get(&nkey).expect("network entry present");
    assert!(entry.get("matrix").is_none(), "old entry not overwritten");
    assert!(entry.get("diameter").and_then(Value::as_f64).is_some());
    assert_eq!(cache.entry_count().unwrap(), 2);
    let _ = fs::remove_dir_all(&dir);
}
