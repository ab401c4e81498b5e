//! A warm unit is served by the sweep engine's own cache read and
//! submits no session job. One test in its own process so no
//! concurrent test can touch the process-wide service counters.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gncg_json::ToJson;
use gncg_parallel::Budget;
use gncg_service::cache::ResultCache;
use gncg_service::Session;
use gncg_sweep::engine::run_spec;
use gncg_sweep::spec::SweepSpec;
use gncg_trace::Counter;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gncg_sweep_warm_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

#[test]
fn warm_units_submit_no_session_job() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs/sweep_uniform_bounds.sweep.json");
    let spec = SweepSpec::parse(&fs::read_to_string(&path).expect("committed spec readable"))
        .expect("committed spec parses");
    let dir = scratch("cache");
    let cache = Arc::new(ResultCache::at(&dir).unwrap());
    let session = Session::builder().threads(2).build();

    gncg_trace::set_enabled(true);
    let mut reports = Vec::new();
    let mut enqueued = Vec::new();
    for regime in ["cold", "warm"] {
        let before = gncg_trace::snapshot();
        let run = run_spec(
            &spec,
            Some(Arc::clone(&cache)),
            Some(&session),
            &Budget::unlimited(),
            Some(scratch(regime).join("ckpt.json")),
        );
        session.wait_idle();
        let delta = gncg_trace::snapshot().counters_since(&before);
        assert!(!run.interrupted, "{regime}");
        reports.push(gncg_json::to_string_pretty(&run.report.to_json()));
        enqueued.push(delta[Counter::ServiceEnqueued as usize]);
    }
    gncg_trace::set_enabled(false);

    assert_eq!(
        enqueued[0],
        spec.units().len() as u64,
        "one job per cold unit"
    );
    assert_eq!(enqueued[1], 0, "a warm unit submitted a session job");
    assert_eq!(reports[0], reports[1]);
    let _ = fs::remove_dir_all(&dir);
}
