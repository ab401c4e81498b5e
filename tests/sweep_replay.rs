//! Tier-1 smoke over the whole certify stack: the committed
//! `specs/sweep_chain_exact.sweep.json` (exact β/γ on small geometric
//! chains) replayed through the sweep engine must reproduce the
//! committed `results/sweep_chain_exact.json` byte for byte, directly
//! and through a `Session` with a result cache (cold, then warm). The
//! full three-regime replay of every spec lives in
//! `crates/sweep/tests/sweep_oracle.rs`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use euclidean_network_design::parallel::Budget;
use gncg_json::ToJson;
use gncg_service::cache::ResultCache;
use gncg_service::Session;
use gncg_sweep::engine::run_spec;
use gncg_sweep::spec::SweepSpec;

/// The committed spec and its committed report.
fn committed() -> (SweepSpec, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("specs/sweep_chain_exact.sweep.json"))
        .expect("committed spec");
    let spec = SweepSpec::parse(&text).expect("spec parses");
    let report = std::fs::read_to_string(root.join("results/sweep_chain_exact.json"))
        .expect("committed results");
    (spec, report)
}

#[test]
fn chain_exact_spec_replays_committed_results() {
    let (spec, committed) = committed();
    let scratch = std::env::temp_dir().join(format!("gncg_sweep_replay_{}", std::process::id()));
    let out = run_spec(
        &spec,
        None,
        None,
        &Budget::unlimited(),
        Some(scratch.join("ckpt.json")),
    );
    std::fs::remove_dir_all(&scratch).ok();
    assert!(!out.interrupted);
    // what `Report::save` writes with tracing off
    assert_eq!(
        gncg_json::to_string_pretty(&out.report.to_json()),
        committed,
        "replay diverged from results/sweep_chain_exact.json"
    );
}

/// Every file under `dir` with its modification time: a rewritten
/// entry (tmp file renamed over it) shows up as a changed time.
fn listing(dir: &Path) -> BTreeMap<PathBuf, SystemTime> {
    std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let modified = e.metadata().and_then(|m| m.modified()).expect("mtime");
            (e.path(), modified)
        })
        .collect()
}

#[test]
fn chain_exact_spec_replays_through_a_cold_then_warm_cache() {
    let (spec, committed) = committed();
    let scratch = std::env::temp_dir().join(format!("gncg_sweep_cached_{}", std::process::id()));
    let cache = Arc::new(ResultCache::at(scratch.join("cache")).expect("cache dir"));
    let session = Session::builder().threads(2).build();
    let replay = |leg: &str| {
        let out = run_spec(
            &spec,
            Some(Arc::clone(&cache)),
            Some(&session),
            &Budget::unlimited(),
            Some(scratch.join(format!("{leg}.ckpt.json"))),
        );
        assert!(!out.interrupted, "{leg} replay interrupted");
        assert_eq!(
            gncg_json::to_string_pretty(&out.report.to_json()),
            committed,
            "{leg} replay diverged from results/sweep_chain_exact.json"
        );
    };
    replay("cold");
    let after_cold = listing(cache.dir());
    assert!(!after_cold.is_empty(), "the cold replay cached nothing");
    replay("warm");
    let after_warm = listing(cache.dir());
    std::fs::remove_dir_all(&scratch).ok();
    assert_eq!(
        after_warm, after_cold,
        "the warm replay added or rewrote a cache entry"
    );
}
