//! A sweep unit computed under an exhausted ambient budget must not
//! poison the result cache.
//!
//! This models the wire path: a `JobSpec::Sweep` with a job budget runs
//! the inline engine (`session: None`) inside a session job whose
//! ambient budget is the job's. When that budget runs out, the parallel
//! kernels under the network and certify steps return partial output
//! (β = 1, no γ, diameter 0). Such a unit must be neither cached, nor
//! checkpointed, nor pushed: the run reports `interrupted`, and a later
//! unbudgeted run — cold, then warm from the same cache — reproduces
//! the clean report byte for byte.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gncg_json::ToJson;
use gncg_parallel::{with_budget, Budget};
use gncg_service::cache::ResultCache;
use gncg_sweep::engine::run_spec;
use gncg_sweep::spec::SweepSpec;

fn spec() -> SweepSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs/sweep_uniform_bounds.sweep.json");
    let text = fs::read_to_string(&path).expect("committed spec readable");
    SweepSpec::parse(&text).expect("committed spec parses")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gncg_sweep_exhausted_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn bytes(report: &gncg_sweep::Report) -> String {
    gncg_json::to_string_pretty(&report.to_json())
}

#[test]
fn units_under_an_exhausted_ambient_budget_are_never_kept() {
    let spec = spec();
    let clean = run_spec(
        &spec,
        None,
        None,
        &Budget::unlimited(),
        Some(scratch("clean").join("ckpt.json")),
    );
    assert!(!clean.interrupted);

    let cache_dir = scratch("cache");
    let cache = Arc::new(ResultCache::at(&cache_dir).expect("cache dir"));
    let ckpt = scratch("ckpt").join("ckpt.json");
    let dead = Budget::unlimited();
    dead.cancel();
    let poisoned = with_budget(&dead, || {
        run_spec(
            &spec,
            Some(Arc::clone(&cache)),
            None,
            &Budget::unlimited(),
            Some(ckpt.clone()),
        )
    });
    assert!(
        poisoned.interrupted,
        "an exhausted ambient budget interrupts"
    );
    assert_eq!(poisoned.units_done, 0);
    assert!(poisoned.report.rows.is_empty(), "no partial row is pushed");
    assert_eq!(cache.entry_count().unwrap(), 0, "nothing is cached");
    let recorded = fs::read_to_string(&ckpt).unwrap_or_default();
    assert!(recorded.trim().is_empty(), "checkpointed: {recorded}");

    for regime in ["cold", "warm"] {
        let replay = run_spec(
            &spec,
            Some(Arc::clone(&cache)),
            None,
            &Budget::unlimited(),
            Some(ckpt.clone()),
        );
        assert!(!replay.interrupted, "{regime}");
        assert_eq!(bytes(&replay.report), bytes(&clean.report), "{regime}");
        assert!(cache.entry_count().unwrap() > 0, "{regime}");
    }
    let _ = fs::remove_dir_all(&cache_dir);
}
