//! Checkpoint/resume for long parameter sweeps.
//!
//! A repro binary wraps each natural unit of work (one α, one seed, one
//! figure panel) in [`SweepCheckpoint::rows`] or
//! [`SweepCheckpoint::report_with`]. The first time a unit completes,
//! its output rows are appended as one JSON line to
//! `results/<id>.checkpoint.json` and synced; on a restarted run the
//! stored rows are replayed instead of recomputed. A SIGKILL therefore
//! costs at most the one unit that was in flight — not the sweep.
//!
//! Properties:
//!
//! * **Tolerant load.** A line truncated by a kill mid-append fails to
//!   parse and is skipped; that unit simply recomputes.
//! * **Deterministic replay.** Units are keyed by a caller-chosen string
//!   and replayed in the caller's program order, so an interrupted +
//!   resumed run assembles the *byte-identical* final report of an
//!   uninterrupted one (the binaries are seeded and deterministic).
//! * **Self-cleaning.** [`SweepCheckpoint::finish`] deletes the file at
//!   the end of every completed run — pass or fail — so a stale
//!   checkpoint can never leak rows from an older code version into a
//!   fresh sweep.

use crate::{results_dir, Report, Row};
use gncg_json::{object, FromJson, ToJson, Value};
use std::collections::HashMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::PathBuf;

/// Append-only checkpoint of completed sweep units for one report id.
pub struct SweepCheckpoint {
    path: PathBuf,
    done_rows: HashMap<String, Vec<Row>>,
    done_reports: HashMap<String, Report>,
    /// Units replayed from disk this run (for the resume banner).
    resumed: usize,
    file: Option<std::fs::File>,
}

impl SweepCheckpoint {
    /// Open (or start) the checkpoint for report `id`, loading every
    /// completed unit recorded by a previous interrupted run.
    pub fn open(id: &str) -> Self {
        Self::open_at(results_dir().join(format!("{id}.checkpoint.json")))
    }

    /// [`SweepCheckpoint::open`] with an explicit file path (tests use
    /// this to avoid the process-global results dir).
    pub fn open_at(path: PathBuf) -> Self {
        let mut done_rows = HashMap::new();
        let mut done_reports = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                // a line truncated by SIGKILL mid-append fails to parse:
                // skip it, the unit recomputes
                let Ok(v) = gncg_json::parse(line) else {
                    continue;
                };
                let Some(key) = v.get("key").and_then(|k| k.as_str()) else {
                    continue;
                };
                if let Some(rows) = v.get("rows") {
                    if let Ok(rows) = Vec::<Row>::from_json(rows) {
                        done_rows.entry(key.to_string()).or_insert(rows);
                    }
                } else if let Some(report) = v.get("report") {
                    if let Ok(report) = Report::from_json(report) {
                        done_reports.entry(key.to_string()).or_insert(report);
                    }
                }
            }
        }
        Self {
            path,
            done_rows,
            done_reports,
            resumed: 0,
            file: None,
        }
    }

    /// How many units were replayed from disk instead of recomputed.
    pub fn resumed_units(&self) -> usize {
        self.resumed
    }

    /// Run one unit of work that appends rows to `report` — or replay
    /// its stored rows if a previous run already completed it.
    ///
    /// Returns the range of `report.rows` the unit produced, so callers
    /// can derive follow-up values (e.g. a fitted slope) from the rows
    /// regardless of whether they were computed or replayed.
    pub fn rows(
        &mut self,
        report: &mut Report,
        key: &str,
        unit: impl FnOnce(&mut Report),
    ) -> Range<usize> {
        self.try_rows(report, key, |report| {
            unit(report);
            true
        })
        .expect("a unit that always completes is always recorded")
    }

    /// [`SweepCheckpoint::rows`] for a unit that can come back
    /// incomplete: when `unit` returns `false`, the rows it pushed are
    /// taken back out of `report`, nothing is recorded (a rerun
    /// recomputes the unit), and the result is `None`.
    pub fn try_rows(
        &mut self,
        report: &mut Report,
        key: &str,
        unit: impl FnOnce(&mut Report) -> bool,
    ) -> Option<Range<usize>> {
        let start = report.rows.len();
        if let Some(saved) = self.done_rows.get(key) {
            report.rows.extend(saved.iter().cloned());
            self.resumed += 1;
            return Some(start..report.rows.len());
        }
        if !unit(report) {
            report.rows.truncate(start);
            return None;
        }
        let end = report.rows.len();
        self.append_line(object(vec![
            ("key", key.to_json()),
            ("rows", report.rows[start..end].to_json()),
        ]));
        Some(start..end)
    }

    /// Run a unit of work producing a whole [`Report`] — or replay the
    /// stored report if a previous run already completed it. Used by
    /// binaries that emit several independent reports (Table 1 sections,
    /// figure panels).
    pub fn report_with(&mut self, key: &str, unit: impl FnOnce() -> Report) -> Report {
        if let Some(saved) = self.done_reports.get(key) {
            self.resumed += 1;
            return saved.clone();
        }
        let report = unit();
        self.append_line(object(vec![
            ("key", key.to_json()),
            ("report", report.to_json()),
        ]));
        report
    }

    /// Delete the checkpoint. Call at the end of every *completed* run
    /// (pass or fail): the final report has been saved atomically, so
    /// the partial-progress record must not outlive it.
    pub fn finish(self) {
        let _ = std::fs::remove_file(&self.path);
    }

    fn append_line(&mut self, value: Value) {
        if self.file.is_none() {
            if let Some(dir) = self.path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            self.file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .ok();
        }
        // checkpointing is best-effort: an unwritable results dir must
        // not break the sweep itself
        if let Some(f) = self.file.as_mut() {
            let mut line = gncg_json::to_string(&value);
            line.push('\n');
            let _ = f.write_all(line.as_bytes());
            let _ = f.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempResultsDir(PathBuf);

    impl TempResultsDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("gncg_ckpt_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
        fn path(&self, id: &str) -> PathBuf {
            self.0.join(format!("{id}.checkpoint.json"))
        }
    }

    impl Drop for TempResultsDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn open_in(dir: &TempResultsDir, id: &str) -> SweepCheckpoint {
        SweepCheckpoint::open_at(dir.path(id))
    }

    #[test]
    fn resume_replays_completed_units_without_recompute() {
        let dir = TempResultsDir::new("resume");

        // first run: two units complete
        let mut c1 = open_in(&dir, "ck1");
        let mut r1 = Report::new("ck1", "claim");
        c1.rows(&mut r1, "alpha=1", |r| {
            r.push("alpha=1".into(), 1.0, 1.5, true, "")
        });
        c1.rows(&mut r1, "alpha=2", |r| {
            r.push("alpha=2".into(), 2.0, 2.5, true, "n")
        });
        assert_eq!(c1.resumed_units(), 0);
        assert!(dir.path("ck1").exists());

        // "crashed" here: c1 never finished. second run resumes
        let mut c2 = open_in(&dir, "ck1");
        let mut r2 = Report::new("ck1", "claim");
        let range = c2.rows(&mut r2, "alpha=1", |_| {
            panic!("unit must not recompute on resume")
        });
        assert_eq!(range, 0..1);
        c2.rows(&mut r2, "alpha=2", |_| panic!("unit must not recompute"));
        // a third, new unit still runs
        c2.rows(&mut r2, "alpha=3", |r| {
            r.push("alpha=3".into(), 3.0, 3.5, true, "")
        });
        assert_eq!(c2.resumed_units(), 2);
        assert_eq!(r2.rows.len(), 3);
        assert_eq!(r1.rows, r2.rows[..2].to_vec());

        // finish deletes the file
        c2.finish();
        assert!(!dir.path("ck1").exists());
    }

    #[test]
    fn truncated_last_line_is_skipped() {
        let dir = TempResultsDir::new("trunc");
        let mut c1 = open_in(&dir, "ck2");
        let mut r = Report::new("ck2", "claim");
        c1.rows(&mut r, "u1", |r| r.push("u1".into(), 1.0, 1.0, true, ""));
        // simulate a SIGKILL mid-append: chop the file mid-line
        let text = std::fs::read_to_string(dir.path("ck2")).unwrap();
        std::fs::write(dir.path("ck2"), &text.as_bytes()[..text.len() / 2]).unwrap();

        let mut c2 = open_in(&dir, "ck2");
        let mut r2 = Report::new("ck2", "claim");
        let mut recomputed = false;
        c2.rows(&mut r2, "u1", |r| {
            recomputed = true;
            r.push("u1".into(), 1.0, 1.0, true, "");
        });
        assert!(recomputed, "corrupt unit must recompute");
        assert_eq!(r2.rows, r.rows);
    }

    #[test]
    fn whole_report_units_roundtrip() {
        let dir = TempResultsDir::new("whole");
        let mut c1 = open_in(&dir, "ck3");
        let built = c1.report_with("section_a", || {
            let mut r = Report::new("section_a", "sub-claim");
            r.push_unreferenced("x=1".into(), 4.25, true, "");
            r.push_degenerate("x=2".into(), false, "no data");
            r
        });
        let mut c2 = open_in(&dir, "ck3");
        let replayed = c2.report_with("section_a", || panic!("must not recompute"));
        assert_eq!(replayed, built);
        assert_eq!(c2.resumed_units(), 1);
    }
}
