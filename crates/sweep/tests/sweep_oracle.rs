//! The replay oracle: every committed `specs/*.sweep.json` must
//! reproduce its committed `results/<id>.json` **byte-for-byte** in
//! every execution regime —
//!
//! * **direct**: no cache, engine inline on this thread;
//! * **cold**: a fresh content-addressed cache, units submitted through
//!   a [`Session`] (the `gncg sweep run` path), at 1 and at 4 session
//!   threads;
//! * **warm**: the same cache again, through the session and then
//!   inline (every unit a hit).
//!
//! The committed specs cover both cost models. The comparison is
//! against the bytes in git, so any drift — in a generator, a solver
//! kernel, the canonical JSON printer, the report shape, or the cache —
//! fails this suite before it can silently rewrite the repository's
//! reproduction artifacts.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gncg_json::ToJson;
use gncg_parallel::Budget;
use gncg_service::cache::ResultCache;
use gncg_service::Session;
use gncg_sweep::engine::run_spec;
use gncg_sweep::spec::SweepSpec;

fn repo_root() -> PathBuf {
    // crates/sweep -> workspace root two levels up
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn committed_specs() -> Vec<(PathBuf, SweepSpec)> {
    let dir = repo_root().join("specs");
    let mut specs: Vec<(PathBuf, SweepSpec)> = fs::read_dir(&dir)
        .expect("specs/ directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".sweep.json"))
        .map(|p| {
            let text = fs::read_to_string(&p).expect("spec readable");
            let spec = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, spec)
        })
        .collect();
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        !specs.is_empty(),
        "no committed specs found in {}",
        dir.display()
    );
    specs
}

fn scratch(tag: &str, id: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gncg_sweep_oracle_{tag}_{id}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// What `Report::save` writes with tracing off (the committed-results
/// regime): the pretty print of the report JSON.
fn report_bytes(report: &gncg_sweep::Report) -> String {
    gncg_json::to_string_pretty(&report.to_json())
}

#[test]
fn committed_specs_are_named_after_their_sweep_ids() {
    for (path, spec) in committed_specs() {
        let expected = format!("{}.sweep.json", spec.id);
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            expected,
            "spec file name must match its `sweep` id"
        );
    }
}

#[test]
fn every_committed_spec_replays_its_results_byte_for_byte() {
    for (path, spec) in committed_specs() {
        let committed_path = repo_root()
            .join("results")
            .join(format!("{}.json", spec.id));
        let committed = fs::read_to_string(&committed_path).unwrap_or_else(|e| {
            panic!(
                "{}: committed results missing ({e}); run `gncg sweep run --spec {}`",
                committed_path.display(),
                path.display()
            )
        });

        // -- direct: no cache, inline --------------------------------
        let direct = run_spec(
            &spec,
            None,
            None,
            &Budget::unlimited(),
            Some(scratch("direct", &spec.id).join("ckpt.json")),
        );
        assert!(!direct.interrupted);
        assert_eq!(
            report_bytes(&direct.report),
            committed,
            "{}: direct run diverged from committed results",
            path.display()
        );

        for threads in [1usize, 4] {
            // -- cold: fresh cache, units through a Session ----------
            let cache_dir = scratch(&format!("cache{threads}"), &spec.id);
            let cache = Arc::new(ResultCache::at(&cache_dir).unwrap());
            let session = Session::builder().threads(threads).build();
            let run = |regime: &str, session: Option<&Session>| {
                let out = run_spec(
                    &spec,
                    Some(Arc::clone(&cache)),
                    session,
                    &Budget::unlimited(),
                    Some(scratch(&format!("{regime}{threads}"), &spec.id).join("ckpt.json")),
                );
                assert!(!out.interrupted);
                assert_eq!(
                    report_bytes(&out.report),
                    committed,
                    "{}: {regime} run at {threads} session threads diverged from committed results",
                    path.display()
                );
            };
            run("cold", Some(&session));
            let entries_after_cold = cache.entry_count().unwrap();
            assert!(
                entries_after_cold > 0,
                "{}: cold run cached nothing",
                path.display()
            );

            // -- warm: same cache, session then inline (all hits) ----
            run("warm_session", Some(&session));
            run("warm_inline", None);
            assert_eq!(
                cache.entry_count().unwrap(),
                entries_after_cold,
                "{}: warm runs missed entries they should have hit",
                path.display()
            );
            let _ = fs::remove_dir_all(&cache_dir);
        }
    }
}
