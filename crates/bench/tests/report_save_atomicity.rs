//! Regression test for `Report::save` atomicity when the target path
//! already exists.
//!
//! `save` writes `<id>.json.tmp`, fsyncs, then renames over
//! `<id>.json`. The guarantees this pins down:
//!
//! * saving over an existing report replaces its contents completely
//!   (no truncated/merged leftovers from the longer old file),
//! * the `.tmp` staging file never survives a successful save,
//! * a concurrent reader of the *old* path sees either the old bytes or
//!   the new bytes, never a partial write — approximated here by
//!   checking the destination is parseable and complete after every one
//!   of a rapid sequence of overwrites.

use gncg_sweep::Report;
use std::path::PathBuf;
use std::sync::Mutex;

// serializes GNCG_RESULTS_DIR mutation across this binary's tests
static LOCK: Mutex<()> = Mutex::new(());

fn with_temp_results_dir<T>(tag: &str, f: impl FnOnce() -> T) -> (T, PathBuf) {
    let dir = std::env::temp_dir().join(format!("gncg_save_atomic_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("GNCG_RESULTS_DIR", &dir);
    let out = f();
    std::env::remove_var("GNCG_RESULTS_DIR");
    (out, dir)
}

fn report_with_rows(id: &str, rows: usize) -> Report {
    let mut r = Report::new(id, "atomicity regression fixture");
    for i in 0..rows {
        r.push(format!("row={i}"), 1.0, 1.5, true, "fixture");
    }
    r
}

#[test]
fn save_over_existing_path_replaces_atomically() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ((), dir) = with_temp_results_dir("overwrite", || {
        // long first version, then a rapid sequence of shorter saves:
        // any non-atomic replacement would leave tail bytes of the long
        // file (unparseable JSON) or a transiently missing file
        let long = report_with_rows("atomic_fixture", 64);
        let first = long.save().expect("initial save");
        assert!(first.exists());
        let original_len = std::fs::metadata(&first).expect("metadata").len();

        for round in 0..20usize {
            let short = report_with_rows("atomic_fixture", 1 + round % 3);
            let path = short.save().expect("overwrite save");
            assert_eq!(path, first, "save must target the same path");

            let bytes = std::fs::read(&path).expect("destination readable after save");
            assert!(
                (bytes.len() as u64) < original_len,
                "round {round}: shorter report did not shrink the file \
                 ({} bytes vs {original_len})",
                bytes.len()
            );
            let text = String::from_utf8(bytes).expect("utf8");
            let v = gncg_json::parse(&text)
                .unwrap_or_else(|e| panic!("round {round}: partial/corrupt JSON: {e}"));
            let rows = v
                .get("rows")
                .and_then(|r| r.as_array())
                .unwrap_or_else(|| panic!("round {round}: rows section missing"));
            assert_eq!(rows.len(), 1 + round % 3, "round {round}: wrong row count");

            // the staging file must not survive the rename
            let tmp = path.with_extension("json.tmp");
            assert!(!tmp.exists(), "round {round}: {tmp:?} left behind");
        }
    });
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn save_creates_results_dir_when_missing() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (path, dir) = with_temp_results_dir("fresh", || {
        report_with_rows("fresh_fixture", 2)
            .save()
            .expect("save into nonexistent dir")
    });
    assert!(path.starts_with(&dir));
    assert!(path.exists());
    let _ = std::fs::remove_dir_all(dir);
}
